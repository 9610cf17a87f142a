#ifndef DCG_DOC_UPDATE_H_
#define DCG_DOC_UPDATE_H_

#include <string>
#include <vector>

#include "doc/path.h"
#include "doc/value.h"

namespace dcg::doc {

/// A single field mutation, in the spirit of MongoDB update operators.
struct UpdateOp {
  enum class Kind {
    kSet,    // $set  path = value
    kInc,    // $inc  path += value (numeric; missing treated as 0)
    kUnset,  // $unset remove path's final field
    kPush,   // $push append value to array at path (creates the array)
    kMax,    // $max  path = max(path, value)
    kMin,    // $min  path = min(path, value)
  };

  Kind kind;
  Path path;    // compiled once; replay never re-tokenizes it
  Value value;  // unused for kUnset
};

/// An ordered list of mutations applied atomically to one document.
///
/// The primary applies it once, to a copy of the stored document
/// (Collection::Update); the oplog then ships the resulting post-image,
/// so secondaries never replay the spec.
class UpdateSpec {
 public:
  UpdateSpec() = default;

  /// Fluent builders (plain strings convert implicitly to Path).
  UpdateSpec& Set(Path path, Value v);
  UpdateSpec& Inc(Path path, Value v);
  UpdateSpec& Unset(Path path);
  UpdateSpec& Push(Path path, Value v);
  UpdateSpec& Max(Path path, Value v);
  UpdateSpec& Min(Path path, Value v);

  const std::vector<UpdateOp>& ops() const { return ops_; }
  bool empty() const { return ops_.empty(); }

  /// Applies every op, in order, to `target` (must be an Object).
  /// Returns false (leaving a partially applied document) only on type
  /// errors such as $inc on a non-numeric field; callers treat that as a
  /// workload bug, not a recoverable condition.
  bool Apply(Value* target) const;

 private:
  std::vector<UpdateOp> ops_;
};

}  // namespace dcg::doc

#endif  // DCG_DOC_UPDATE_H_
