#include "store/database.h"

#include <utility>

namespace dcg::store {
namespace {

uint64_t HashBytes(const char* data, size_t n, uint64_t seed) {
  // FNV-1a, good enough for structural fingerprints.
  uint64_t h = seed ^ 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t HashString(const std::string& s, uint64_t seed) {
  return HashBytes(s.data(), s.size(), seed);
}

}  // namespace

Collection& Database::GetOrCreate(const std::string& name) {
  auto it = collections_.find(name);
  if (it == collections_.end()) {
    it = collections_.emplace(name, std::make_unique<Collection>(name)).first;
  }
  return *it->second;
}

Collection* Database::Get(const std::string& name) {
  auto it = collections_.find(name);
  return it == collections_.end() ? nullptr : it->second.get();
}

const Collection* Database::Get(const std::string& name) const {
  auto it = collections_.find(name);
  return it == collections_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Database::CollectionNames() const {
  std::vector<std::string> names;
  names.reserve(collections_.size());
  for (const auto& [name, unused] : collections_) names.push_back(name);
  return names;
}

void Database::ResetFrom(const Database& source) {
  collections_.clear();
  for (const auto& [name, collection] : source.collections_) {
    GetOrCreate(name).CopyFrom(*collection);
  }
}

uint64_t Database::Fingerprint() const {
  uint64_t h = 0;
  for (const auto& [name, collection] : collections_) {
    uint64_t ch = HashString(name, 0);
    collection->ForEach([&ch](const doc::Value& id, const DocPtr& d) {
      // Documents render deterministically (replicas install the very
      // documents the primary committed), so JSON text is a stable
      // encoding.
      ch = HashString(id.ToJson(), ch);
      ch = HashString(d->ToJson(), ch);
      return true;
    });
    h ^= ch * 0x9e3779b97f4a7c15ULL + 1;
  }
  return h;
}

}  // namespace dcg::store
