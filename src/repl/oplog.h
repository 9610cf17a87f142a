#ifndef DCG_REPL_OPLOG_H_
#define DCG_REPL_OPLOG_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "doc/key_string.h"
#include "sim/time.h"
#include "store/collection.h"

namespace dcg::repl {

/// A position in the replicated log: the primary's wall-clock time of the
/// commit plus a dense sequence number. Comparisons use the sequence; the
/// wall time feeds staleness arithmetic (lastAppliedOpTime differences,
/// §2.3 of the paper).
struct OpTime {
  sim::Time wall = 0;
  uint64_t seq = 0;

  bool operator==(const OpTime& o) const { return seq == o.seq; }
  bool operator<(const OpTime& o) const { return seq < o.seq; }
  bool operator<=(const OpTime& o) const { return seq <= o.seq; }
};

enum class OpKind { kInsert, kUpdate, kRemove, kNoop };

/// One logical replicated operation. Inserts and updates carry the
/// document exactly as the primary committed it (an update's post-image):
/// documents are immutable, so the oplog and every member that applies the
/// entry share that one object instead of replaying the update operators.
/// Removes carry only the key. The key is the primary's encoding of the
/// document's _id, so a secondary applies the entry without encoding it
/// again, and copying an entry allocates nothing for keys of up to
/// doc::KeyString::kInlineCapacity bytes (every YCSB and TPC-C id).
struct OplogEntry {
  OpTime optime;
  OpKind kind = OpKind::kNoop;
  std::string collection;
  doc::KeyString key;
  /// nullptr for removes and no-ops.
  store::DocPtr doc;
  /// Bytes the entry dirties on every member that applies it (the disk
  /// model's input): the document's size for inserts and updates, a small
  /// constant plus the removed document's _id's for removes.
  size_t approx_bytes = 0;
};

/// The primary's operation log. Secondaries read batches after their own
/// last-applied sequence number. It holds only the suffix some live member
/// still has to apply: the replica set trims every entry all live members
/// have applied (TrimThrough), since members that restart or roll back
/// clone a live member instead of replaying history.
class Oplog {
 public:
  /// `capacity` caps retained entries; older entries fall off (a secondary
  /// that falls behind the cap would need initial sync in MongoDB — the
  /// replica set CHECK-fails in that case, since our experiments are sized
  /// to never hit it).
  explicit Oplog(size_t capacity = 2'000'000);

  void Append(OplogEntry entry);

  /// Entries with seq in (after_seq, after_seq + max_batch]. CHECK-fails
  /// when entries after `after_seq` have already been trimmed or capped.
  std::vector<OplogEntry> ReadAfter(uint64_t after_seq,
                                    size_t max_batch) const;

  /// Sequence of the newest entry appended and not truncated (0 before
  /// the first append). Trimming keeps it: the log may be empty with
  /// last_seq() > 0, and the next append continues the sequence.
  uint64_t last_seq() const;

  /// Discards every entry with seq > `seq` (failover rollback of
  /// un-replicated writes). CHECK-fails when `seq` lies below the trimmed
  /// prefix: a rollback never cuts history a live member no longer has.
  void TruncateAfter(uint64_t seq);

  /// Pops every entry with seq <= min(`seq`, last_seq()): entries every
  /// member that will still read the log has applied. Batches already read
  /// keep their own copies. Monotonic: a lower `seq` is a no-op.
  void TrimThrough(uint64_t seq);

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  /// Seq of the oldest retained entry (last_seq() + 1 when empty).
  uint64_t first_seq() const { return first_seq_; }

 private:
  size_t capacity_;
  uint64_t first_seq_ = 1;  // seq of entries_.front(), when non-empty
  std::deque<OplogEntry> entries_;
};

}  // namespace dcg::repl

#endif  // DCG_REPL_OPLOG_H_
