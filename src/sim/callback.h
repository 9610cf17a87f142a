#ifndef DCG_SIM_CALLBACK_H_
#define DCG_SIM_CALLBACK_H_

#include <cstddef>
#include <cstring>
#include <functional>  // std::invoke
#include <new>
#include <type_traits>
#include <utility>

namespace dcg::sim {

template <typename Sig>
class UniqueFunction;

/// A move-only callable with inline storage: the type every hop of the
/// simulator's message path hands its continuation to (event slots, network
/// messages, CPU jobs, write commits).
///
/// A callable of at most kInlineSize bytes (pointer-aligned, nothrow
/// movable) lives inside the object, so a closure capturing a few pointers —
/// `[this, command = std::move(ptr), t]` — never allocates. Larger ones fall
/// back to one heap allocation, as std::function's would. Unlike
/// std::function the callable need not be copyable, so a closure may own a
/// `std::unique_ptr`.
template <typename R, typename... Args>
class UniqueFunction<R(Args...)> {
 public:
  static constexpr size_t kInlineSize = 48;

  UniqueFunction() noexcept = default;
  UniqueFunction(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-*)

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, UniqueFunction> &&
                std::is_invocable_r_v<R, D&, Args...>>>
  UniqueFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    Construct<D>(std::forward<F>(f));
  }

  UniqueFunction(UniqueFunction&& other) noexcept { MoveFrom(&other); }
  UniqueFunction& operator=(UniqueFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(&other);
    }
    return *this;
  }
  UniqueFunction& operator=(std::nullptr_t) noexcept {
    Reset();
    return *this;
  }
  /// Destroys the current callable, then builds `f` in place.
  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, UniqueFunction> &&
                std::is_invocable_r_v<R, D&, Args...>>>
  UniqueFunction& operator=(F&& f) {
    Reset();
    Construct<D>(std::forward<F>(f));
    return *this;
  }

  UniqueFunction(const UniqueFunction&) = delete;
  UniqueFunction& operator=(const UniqueFunction&) = delete;

  ~UniqueFunction() { Reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Invokes the callable, which must be present.
  R operator()(Args... args) {
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }

  /// Destroys the callable (if any), leaving this empty.
  void Reset() noexcept {
    if (ops_ == nullptr) return;
    if (ops_->destroy != nullptr) ops_->destroy(storage_);
    ops_ = nullptr;
  }

  /// True when a callable of type F would be stored without allocating.
  template <typename F>
  static constexpr bool StoresInline() {
    return sizeof(F) <= kInlineSize && alignof(F) <= kAlign &&
           std::is_nothrow_move_constructible_v<F>;
  }

 private:
  static constexpr size_t kAlign = alignof(void*);

  /// Per-callable-type operations. A null `relocate` means moving is a
  /// byte copy of the storage (trivially copyable callables, and the
  /// pointer of a heap-stored one); a null `destroy` means nothing to do.
  struct Ops {
    R (*invoke)(void* storage, Args&&... args);
    void (*relocate)(void* to, void* from) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename D>
  struct InlineOps {
    static D* Get(void* s) { return std::launder(static_cast<D*>(s)); }
    static R Invoke(void* s, Args&&... args) {
      return std::invoke(*Get(s), std::forward<Args>(args)...);
    }
    static void Relocate(void* to, void* from) noexcept {
      D* src = Get(from);
      ::new (to) D(std::move(*src));
      src->~D();
    }
    static void Destroy(void* s) noexcept { Get(s)->~D(); }
    static constexpr Ops kOps = {
        &Invoke, std::is_trivially_copyable_v<D> ? nullptr : &Relocate,
        std::is_trivially_destructible_v<D> ? nullptr : &Destroy};
  };

  template <typename D>
  struct HeapOps {
    static D* Get(void* s) { return *static_cast<D**>(s); }
    static R Invoke(void* s, Args&&... args) {
      return std::invoke(*Get(s), std::forward<Args>(args)...);
    }
    static void Destroy(void* s) noexcept { delete Get(s); }
    static constexpr Ops kOps = {&Invoke, nullptr, &Destroy};
  };

  template <typename D, typename F>
  void Construct(F&& f) {
    if constexpr (StoresInline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &InlineOps<D>::kOps;
    } else {
      D* heap = new D(std::forward<F>(f));
      std::memcpy(storage_, &heap, sizeof(heap));
      ops_ = &HeapOps<D>::kOps;
    }
  }

  void MoveFrom(UniqueFunction* other) noexcept {
    ops_ = other->ops_;
    if (ops_ == nullptr) return;
    if (ops_->relocate != nullptr) {
      ops_->relocate(storage_, other->storage_);
    } else {
      std::memcpy(storage_, other->storage_, kInlineSize);
    }
    other->ops_ = nullptr;
  }

  const Ops* ops_ = nullptr;
  alignas(kAlign) unsigned char storage_[kInlineSize];
};

/// The simulator's `void()` continuation: an event, a network message's
/// delivery, a CPU job's completion.
using Callback = UniqueFunction<void()>;

}  // namespace dcg::sim

#endif  // DCG_SIM_CALLBACK_H_
