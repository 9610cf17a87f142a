#include "repl/oplog.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace dcg::repl {

Oplog::Oplog(size_t capacity) : capacity_(capacity) {
  DCG_CHECK(capacity_ > 0);
}

void Oplog::Append(OplogEntry entry) {
  DCG_CHECK_MSG(entry.optime.seq == last_seq() + 1,
                "oplog sequence must be dense");
  entries_.push_back(std::move(entry));
  if (entries_.size() > capacity_) {
    entries_.pop_front();
    ++first_seq_;
  }
}

std::vector<OplogEntry> Oplog::ReadAfter(uint64_t after_seq,
                                         size_t max_batch) const {
  std::vector<OplogEntry> out;
  if (after_seq >= last_seq()) return out;
  // Also covers a log trimmed empty: a reader behind it missed entries.
  DCG_CHECK_MSG(after_seq + 1 >= first_seq_,
                "reader fell off the capped oplog");
  const size_t start = static_cast<size_t>(after_seq + 1 - first_seq_);
  const size_t count = std::min(entries_.size() - start, max_batch);
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) out.push_back(entries_[start + i]);
  return out;
}

void Oplog::TruncateAfter(uint64_t seq) {
  DCG_CHECK_MSG(seq + 1 >= first_seq_,
                "rollback below the trimmed oplog prefix");
  while (!entries_.empty() && entries_.back().optime.seq > seq) {
    entries_.pop_back();
  }
}

void Oplog::TrimThrough(uint64_t seq) {
  seq = std::min(seq, last_seq());
  while (first_seq_ <= seq) {
    entries_.pop_front();
    ++first_seq_;
  }
}

uint64_t Oplog::last_seq() const {
  return entries_.empty() ? first_seq_ - 1 : entries_.back().optime.seq;
}

}  // namespace dcg::repl
