#ifndef DCG_DOC_PATH_H_
#define DCG_DOC_PATH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dcg::doc {

/// A dotted field path ("a.b.0.c") compiled once at construction: the
/// segment boundaries and any numeric array indexes are pre-parsed, so the
/// hot lookup paths (filter matching, sort-key extraction, index probes,
/// update application) never re-tokenize the string per document.
///
/// Converts implicitly from strings so query-construction call sites stay
/// unchanged; tokenization matches Value::FindPath(string_view) exactly
/// (split at every '.', with a segment that parses fully as a decimal
/// number doubling as an array index).
class Path {
 public:
  struct Segment {
    uint32_t pos = 0;  // offset into str_
    uint32_t len = 0;
    size_t index = 0;      // parsed decimal value, valid when is_index
    bool is_index = false;
  };

  Path() = default;
  Path(std::string path);       // NOLINT(google-explicit-constructor)
  Path(std::string_view path)   // NOLINT(google-explicit-constructor)
      : Path(std::string(path)) {}
  Path(const char* path)        // NOLINT(google-explicit-constructor)
      : Path(std::string(path)) {}

  /// The original dotted string.
  const std::string& str() const { return str_; }
  bool empty() const { return str_.empty(); }

  size_t segment_count() const { return count_; }
  const Segment& segment(size_t i) const {
    return i == 0 ? first_ : rest_[i - 1];
  }
  std::string_view segment_name(size_t i) const {
    const Segment& s = segment(i);
    return std::string_view(str_).substr(s.pos, s.len);
  }

  bool operator==(const Path& o) const { return str_ == o.str_; }
  bool operator!=(const Path& o) const { return str_ != o.str_; }

 private:
  std::string str_;
  // Offsets into str_ rather than string_views: offsets survive moves and
  // copies of the owning string (SSO would dangle views). The first
  // segment is held inline, so a one-segment path (most update and filter
  // fields) allocates nothing beyond a string too long for SSO.
  uint32_t count_ = 0;
  Segment first_;
  std::vector<Segment> rest_;  // segments 1..count_-1
};

}  // namespace dcg::doc

#endif  // DCG_DOC_PATH_H_
