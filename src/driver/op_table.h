#ifndef DCG_DRIVER_OP_TABLE_H_
#define DCG_DRIVER_OP_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "util/check.h"

namespace dcg::driver {

/// The driver's live ops, keyed by op id. Op ids are nonzero, dense and
/// only increase, and nearly every op is short-lived, so the index is a
/// power-of-two array: id `i` sits at slot `i & mask`, and a lookup is one
/// index plus an id compare. An insert whose slot still holds an older
/// live id doubles the index until it gets a slot of its own (doubling
/// never separates two live ids that were apart, so only the new id can
/// collide); the index never shrinks.
///
/// Records live apart from the index, recycled through a free list, so a
/// record never moves while it is live and an op that lingers while
/// thousands of newer ones come and go costs index slots (16 bytes each),
/// not record copies.
template <typename Record>
class OpTable {
 public:
  OpTable() : index_(kInitialSlots) {}

  OpTable(const OpTable&) = delete;
  OpTable& operator=(const OpTable&) = delete;

  /// The live record filed under `id`, or nullptr.
  Record* Find(uint64_t id) {
    const Entry& e = index_[id & mask()];
    return e.id == id ? &records_[e.record] : nullptr;
  }

  /// Files `record` under `id`, which must be nonzero and not live.
  void Insert(uint64_t id, Record&& record) {
    DCG_CHECK_MSG(id != 0, "op id 0 is reserved");
    while (index_[id & mask()].id != 0) {
      DCG_CHECK_MSG(index_[id & mask()].id != id, "op id already live");
      Grow();
    }
    uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<uint32_t>(records_.size());
      records_.push_back(std::move(record));
    } else {
      slot = free_.back();
      free_.pop_back();
      records_[slot] = std::move(record);
    }
    index_[id & mask()] = Entry{id, slot};
    ++size_;
  }

  /// Removes the live record `id` and returns it.
  Record Take(uint64_t id) {
    Entry& e = index_[id & mask()];
    DCG_CHECK_MSG(e.id == id, "op id not live");
    Record record = std::move(records_[e.record]);
    free_.push_back(e.record);
    e = Entry{};
    --size_;
    return record;
  }

  size_t size() const { return size_; }

  /// The live ids, in increasing order.
  std::vector<uint64_t> Ids() const {
    std::vector<uint64_t> ids;
    ids.reserve(size_);
    for (const Entry& e : index_) {
      if (e.id != 0) ids.push_back(e.id);
    }
    std::sort(ids.begin(), ids.end());
    return ids;
  }

 private:
  static constexpr size_t kInitialSlots = 64;

  struct Entry {
    uint64_t id = 0;  // 0 = empty
    uint32_t record = 0;
  };

  size_t mask() const { return index_.size() - 1; }

  void Grow() {
    std::vector<Entry> grown(index_.size() * 2);
    const size_t grown_mask = grown.size() - 1;
    for (const Entry& e : index_) {
      if (e.id != 0) grown[e.id & grown_mask] = e;
    }
    index_ = std::move(grown);
  }

  std::vector<Entry> index_;
  /// A deque: growing it never moves a live record.
  std::deque<Record> records_;
  std::vector<uint32_t> free_;
  size_t size_ = 0;
};

}  // namespace dcg::driver

#endif  // DCG_DRIVER_OP_TABLE_H_
