#include "doc/path.h"

#include <charconv>
#include <utility>

namespace dcg::doc {

Path::Path(std::string path) : str_(std::move(path)) {
  // Mirrors the iteration of Value::FindPath over SplitPath: consume the
  // head before each remaining '.', stopping when the remainder is empty
  // (so "a." yields just "a", and "" yields no segments, exactly like the
  // string walker did).
  std::string_view rest(str_);
  uint32_t pos = 0;
  while (!rest.empty()) {
    const size_t dot = rest.find('.');
    const std::string_view head =
        dot == std::string_view::npos ? rest : rest.substr(0, dot);
    Segment seg;
    seg.pos = pos;
    seg.len = static_cast<uint32_t>(head.size());
    size_t index = 0;
    auto [ptr, ec] =
        std::from_chars(head.data(), head.data() + head.size(), index);
    if (ec == std::errc() && ptr == head.data() + head.size()) {
      seg.index = index;
      seg.is_index = true;
    }
    if (count_++ == 0) {
      first_ = seg;
    } else {
      rest_.push_back(seg);
    }
    if (dot == std::string_view::npos) break;
    rest = rest.substr(dot + 1);
    pos += static_cast<uint32_t>(head.size()) + 1;
  }
}

}  // namespace dcg::doc
