#ifndef DCG_DOC_JSON_H_
#define DCG_DOC_JSON_H_

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string_view>

#include "doc/value.h"

namespace dcg::doc {

namespace json_internal {

template <typename Sink>
void WriteString(std::string_view s, Sink* sink) {
  sink->Put('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        sink->Put("\\\"");
        break;
      case '\\':
        sink->Put("\\\\");
        break;
      case '\n':
        sink->Put("\\n");
        break;
      default:
        sink->Put(c);
    }
  }
  sink->Put('"');
}

template <typename Sink>
void WriteInt(int64_t i, Sink* sink) {
  char buf[24];
  const auto end = std::to_chars(buf, buf + sizeof(buf), i).ptr;
  sink->Put(std::string_view(buf, static_cast<size_t>(end - buf)));
}

}  // namespace json_internal

/// Writes `v` as compact JSON-ish text into `sink`: timestamps as
/// {"$ts":n}, doubles with 12 significant digits, strings with '"', '\'
/// and newline escaped. The sink takes the text through Put(char) and
/// Put(std::string_view). Value::ToJson appends it to a std::string;
/// ChunkMap::HashKey hashes the same bytes without building the string.
template <typename Sink>
void WriteJson(const Value& v, Sink* sink) {
  switch (v.type()) {
    case Value::Type::kNull:
      sink->Put("null");
      return;
    case Value::Type::kBool:
      sink->Put(v.as_bool() ? "true" : "false");
      return;
    case Value::Type::kInt64:
      json_internal::WriteInt(v.as_int64(), sink);
      return;
    case Value::Type::kDouble: {
      char buf[32];
      const int n = std::snprintf(buf, sizeof(buf), "%.12g", v.as_double());
      sink->Put(std::string_view(buf, static_cast<size_t>(n)));
      return;
    }
    case Value::Type::kString:
      json_internal::WriteString(v.as_string(), sink);
      return;
    case Value::Type::kTimestamp:
      sink->Put("{\"$ts\":");
      json_internal::WriteInt(v.as_timestamp(), sink);
      sink->Put('}');
      return;
    case Value::Type::kArray: {
      sink->Put('[');
      bool first = true;
      for (const Value& item : v.as_array()) {
        if (!first) sink->Put(',');
        first = false;
        WriteJson(item, sink);
      }
      sink->Put(']');
      return;
    }
    case Value::Type::kObject: {
      const Object& o = v.as_object();
      sink->Put('{');
      for (size_t i = 0; i < o.size(); ++i) {
        if (i != 0) sink->Put(',');
        json_internal::WriteString(o.name(i), sink);
        sink->Put(':');
        WriteJson(o.value(i), sink);
      }
      sink->Put('}');
      return;
    }
  }
}

}  // namespace dcg::doc

#endif  // DCG_DOC_JSON_H_
