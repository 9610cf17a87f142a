#include "store/collection.h"

#include <algorithm>
#include <string>
#include <utility>

#include "doc/key_string.h"
#include "util/check.h"

namespace dcg::store {
namespace {

const doc::Value& RequireId(const doc::Value& document) {
  DCG_CHECK_MSG(document.is_object(), "documents must be objects");
  const doc::Value* id = document.Find("_id");
  DCG_CHECK_MSG(id != nullptr, "documents must carry an _id field");
  return *id;
}

// Whether `id` encodes to `key`, without allocating for a long encoding.
bool EncodesTo(const doc::Value& id, const doc::KeyString& key) {
  doc::KeyStringBuilder encoded;
  encoded.Append(id);
  return encoded.view() == key.view();
}

}  // namespace

Collection::Collection(std::string name) : name_(std::move(name)) {}

void Collection::AppendIndexKey(const Index& index, const doc::Value& document,
                                doc::KeyStringBuilder* out) {
  static const doc::Value kNull;
  out->OpenArray();
  for (const auto& path : index.paths) {
    const doc::Value* v = document.FindPath(path);
    out->Append(v != nullptr ? *v : kNull);
  }
  out->Append(RequireId(document));
  out->CloseArray();
}

void Collection::IndexDocument(Index* index, const DocPtr& d) {
  doc::KeyStringBuilder key;
  AppendIndexKey(*index, *d, &key);
  const bool inserted = index->tree.Insert(key.key(), d);
  DCG_CHECK_MSG(inserted, "duplicate index entry in %s", index->name.c_str());
}

void Collection::UnindexDocument(Index* index, const doc::Value& document) {
  doc::KeyStringBuilder key;
  AppendIndexKey(*index, document, &key);
  const bool erased = index->tree.Erase(key.key());
  DCG_CHECK_MSG(erased, "missing index entry in %s", index->name.c_str());
}

void Collection::OnInstalled(const DocPtr& old, const DocPtr& d) {
  if (old == nullptr) {
    for (auto& index : indexes_) IndexDocument(index.get(), d);
    return;
  }
  for (auto& index : indexes_) {
    // Re-index only when the indexed tuple changed.
    doc::KeyStringBuilder old_key, new_key;
    AppendIndexKey(*index, *old, &old_key);
    AppendIndexKey(*index, *d, &new_key);
    if (old_key.view() != new_key.view()) {
      const bool erased = index->tree.Erase(old_key.key());
      DCG_CHECK(erased);
      const bool inserted = index->tree.Insert(new_key.key(), d);
      DCG_CHECK(inserted);
    } else {
      DocPtr* slot = index->tree.FindSlot(new_key.key());
      DCG_CHECK_MSG(slot != nullptr, "missing index entry in %s",
                    index->name.c_str());
      *slot = d;
    }
  }
}

bool Collection::Install(doc::KeyString id, const DocPtr& d,
                         DocPtr* replaced) {
  DocPtr old;
  const bool is_new = primary_.Upsert(std::move(id), d, &old);
  OnInstalled(old, d);
  if (replaced != nullptr) *replaced = std::move(old);
  return is_new;
}

bool Collection::Insert(doc::Value document, DocPtr* inserted) {
  doc::KeyString id = RequireId(document);
  auto d = DocPtr::Make(std::move(document));
  if (!primary_.Insert(std::move(id), d)) return false;
  OnInstalled(nullptr, d);
  if (inserted != nullptr) *inserted = std::move(d);
  return true;
}

void Collection::Upsert(doc::Value document) {
  doc::KeyString id = RequireId(document);
  auto d = DocPtr::Make(std::move(document));
  Install(std::move(id), d, /*replaced=*/nullptr);
}

bool Collection::Put(const doc::KeyString& id, const DocPtr& document,
                     DocPtr* replaced) {
  DCG_CHECK_MSG(document != nullptr, "Put needs a document");
  DocPtr old;
  const bool is_new = Install(id, document, &old);
  // A replaced document sat under its own _id, so comparing with it checks
  // the key without encoding; only a new key is encoded again.
  const doc::Value& doc_id = RequireId(*document);
  DCG_CHECK_MSG(is_new ? EncodesTo(doc_id, id) : doc_id == RequireId(*old),
                "Put needs a document whose _id is the key");
  if (replaced != nullptr) *replaced = std::move(old);
  return is_new;
}

std::vector<DocPtr> Collection::FindManyById(
    std::span<const doc::KeyString> ids) const {
  std::vector<DocPtr> out;
  primary_.FindSorted(ids, &out);
  return out;
}

bool Collection::Update(const doc::KeyString& id, const doc::UpdateSpec& spec,
                        DocPtr* pre_image, DocPtr* post_image) {
  // One descent: the payload is swapped in place. Index maintenance in
  // OnInstalled touches other trees, so the slot stays valid.
  DocPtr* slot = primary_.FindSlot(id);
  if (slot == nullptr) return false;
  doc::Value updated = **slot;  // copy-on-write
  const bool ok = spec.Apply(&updated);
  const doc::Value& stored_id = RequireId(**slot);
  DCG_CHECK_MSG(ok, "update spec failed on %s._id=%s", name_.c_str(),
                stored_id.ToJson().c_str());
  DCG_CHECK_MSG(RequireId(updated) == stored_id,
                "updates must not change _id");
  DocPtr previous = std::exchange(*slot, DocPtr::Make(std::move(updated)));
  OnInstalled(previous, *slot);
  if (post_image != nullptr) *post_image = *slot;
  if (pre_image != nullptr) *pre_image = std::move(previous);
  return true;
}

bool Collection::Remove(const doc::KeyString& id, DocPtr* removed) {
  DocPtr old;
  if (!primary_.Erase(id, &old)) return false;
  for (auto& index : indexes_) UnindexDocument(index.get(), *old);
  if (removed != nullptr) *removed = std::move(old);
  return true;
}

void Collection::CreateIndex(std::string index_name,
                             std::vector<std::string> paths) {
  DCG_CHECK_MSG(!HasIndex(index_name), "index %s already exists",
                index_name.c_str());
  auto index = std::make_unique<Index>();
  index->name = std::move(index_name);
  index->paths.assign(paths.begin(), paths.end());
  for (auto it = primary_.Begin(); it.Valid(); it.Next()) {
    IndexDocument(index.get(), it.payload());
  }
  indexes_.push_back(std::move(index));
}

bool Collection::HasIndex(const std::string& index_name) const {
  for (const auto& index : indexes_) {
    if (index->name == index_name) return true;
  }
  return false;
}

template <typename Visit>
void Collection::VisitMatches(const doc::Filter& filter, Visit&& visit) const {
  // Point lookup through the primary key.
  if (const doc::Value* id = filter.EqualityValue("_id"); id != nullptr) {
    DocPtr d = primary_.Find(*id);
    if (d != nullptr && filter.Matches(*d)) visit(d);
    return;
  }

  // Equality over a full secondary-index prefix: the matching tuples are
  // exactly the keys whose encoding starts with the encoded prefix.
  for (const auto& index : indexes_) {
    doc::KeyStringBuilder builder;
    builder.OpenArray();
    size_t pinned = 0;
    for (const auto& path : index->paths) {
      const doc::Value* v = filter.EqualityValue(path.str());
      if (v == nullptr) break;
      builder.Append(*v);
      ++pinned;
    }
    if (pinned == index->paths.size()) {
      const std::string_view prefix = builder.view();
      for (auto it = index->tree.LowerBoundPrefix(prefix); it.Valid();
           it.Next()) {
        if (!it.encoded_key().view().starts_with(prefix)) {
          break;  // past every tuple extending the prefix
        }
        if (filter.Matches(*it.payload()) && !visit(it.payload())) return;
      }
      return;
    }
  }

  // Full scan in _id order.
  for (auto it = primary_.Begin(); it.Valid(); it.Next()) {
    if (filter.Matches(*it.payload()) && !visit(it.payload())) return;
  }
}

std::vector<DocPtr> Collection::Find(const doc::Filter& filter,
                                     size_t limit) const {
  std::vector<DocPtr> out;
  if (limit == 0) return out;
  VisitMatches(filter, [&out, limit](const DocPtr& d) {
    out.push_back(d);
    return out.size() < limit;
  });
  return out;
}

size_t Collection::Count(const doc::Filter& filter) const {
  size_t n = 0;
  VisitMatches(filter, [&n](const DocPtr&) {
    ++n;
    return true;
  });
  return n;
}

std::vector<doc::Value> Collection::FindWith(const doc::Filter& filter,
                                             const FindOptions& options) const {
  // Match (bounded early only when no sort reorders the results).
  std::vector<DocPtr> matches =
      Find(filter, options.sort_path.empty() ? options.limit : SIZE_MAX);

  if (!options.sort_path.empty()) {
    // Extract each document's sort key exactly once, then order decorated
    // (key, input-position) entries: the position tie-break makes the
    // comparator a strict total order, so partial_sort/sort reproduce the
    // previous stable_sort semantics bit-for-bit while a top-k heap sort
    // does O(n log k) work instead of a full O(n log n) pass.
    static const doc::Value kNull;
    struct SortEntry {
      const doc::Value* key;
      size_t pos;
    };
    std::vector<SortEntry> entries;
    entries.reserve(matches.size());
    for (size_t i = 0; i < matches.size(); ++i) {
      const doc::Value* key = matches[i]->FindPath(options.sort_path);
      entries.push_back({key != nullptr ? key : &kNull, i});
    }
    const bool descending = options.sort_descending;
    auto before = [descending](const SortEntry& a, const SortEntry& b) {
      int c = a.key->Compare(*b.key);
      if (descending) c = -c;
      if (c != 0) return c < 0;
      return a.pos < b.pos;  // ties keep input (_id / index) order
    };
    if (options.limit < entries.size()) {
      std::partial_sort(entries.begin(), entries.begin() + options.limit,
                        entries.end(), before);
      entries.resize(options.limit);
    } else {
      std::sort(entries.begin(), entries.end(), before);
    }
    std::vector<DocPtr> ordered;
    ordered.reserve(entries.size());
    for (const SortEntry& e : entries) {
      ordered.push_back(std::move(matches[e.pos]));
    }
    matches = std::move(ordered);
  }

  std::vector<doc::Value> out;
  out.reserve(matches.size());
  for (const DocPtr& d : matches) {
    if (options.projection.empty()) {
      out.push_back(*d);
      continue;
    }
    doc::Value projected{doc::Object{}};
    if (const doc::Value* id = d->Find("_id"); id != nullptr) {
      projected.Set("_id", *id);
    }
    for (const std::string& field : options.projection) {
      if (field == "_id") continue;
      if (const doc::Value* v = d->Find(field); v != nullptr) {
        projected.Set(field, *v);
      }
    }
    out.push_back(std::move(projected));
  }
  return out;
}

std::vector<DocPtr> Collection::RangeById(const doc::KeyString& low,
                                          const doc::KeyString& high,
                                          size_t limit) const {
  std::vector<DocPtr> out;
  for (auto it = primary_.LowerBound(low); it.Valid() && out.size() < limit;
       it.Next()) {
    if (high < it.encoded_key()) break;
    out.push_back(it.payload());
  }
  return out;
}

std::vector<DocPtr> Collection::IndexScan(
    const std::string& index_name, const std::vector<doc::Value>& low_prefix,
    const std::vector<doc::Value>& high_prefix, size_t limit) const {
  const Index* index = nullptr;
  for (const auto& candidate : indexes_) {
    if (candidate->name == index_name) {
      index = candidate.get();
      break;
    }
  }
  DCG_CHECK_MSG(index != nullptr, "no index named %s on %s",
                index_name.c_str(), name_.c_str());
  DCG_CHECK(low_prefix.size() <= index->paths.size());
  DCG_CHECK(high_prefix.size() <= index->paths.size());

  // The encoded prefixes are byte prefixes of the tuples extending them, so
  // the low one is an inclusive lower bound and the scan ends at the first
  // tuple whose leading bytes exceed the high one.
  doc::KeyStringBuilder low, high;
  low.OpenArray();
  for (const doc::Value& v : low_prefix) low.Append(v);
  high.OpenArray();
  for (const doc::Value& v : high_prefix) high.Append(v);
  std::vector<DocPtr> out;
  for (auto it = index->tree.LowerBoundPrefix(low.view());
       it.Valid() && out.size() < limit; it.Next()) {
    if (doc::KeyString::ComparePrefix(high.view(), it.encoded_key().view()) <
        0) {
      break;
    }
    out.push_back(it.payload());
  }
  return out;
}

void Collection::ForEach(
    const std::function<bool(const doc::Value&, const DocPtr&)>& fn) const {
  for (auto it = primary_.Begin(); it.Valid(); it.Next()) {
    if (!fn(RequireId(*it.payload()), it.payload())) return;
  }
}

void Collection::CopyFrom(const Collection& source) {
  if (this == &source) return;
  primary_.CopyFrom(source.primary_);
  indexes_.clear();
  indexes_.reserve(source.indexes_.size());
  for (const auto& index : source.indexes_) {
    auto copy = std::make_unique<Index>();
    copy->name = index->name;
    copy->paths = index->paths;
    copy->tree.CopyFrom(index->tree);
    indexes_.push_back(std::move(copy));
  }
}

void Collection::CheckInvariants() const {
  primary_.CheckInvariants();
  // Every document sits under the encoding of its own _id.
  for (auto it = primary_.Begin(); it.Valid(); it.Next()) {
    DCG_CHECK(doc::KeyString(RequireId(*it.payload())) == it.encoded_key());
  }
  for (const auto& index : indexes_) {
    index->tree.CheckInvariants();
    DCG_CHECK_MSG(index->tree.size() == primary_.size(),
                  "index %s size mismatch", index->name.c_str());
    // Every index entry points at the live document and its key encodes the
    // document's current field values.
    for (auto it = index->tree.Begin(); it.Valid(); it.Next()) {
      const doc::Value& id = RequireId(*it.payload());
      DocPtr live = primary_.Find(id);
      DCG_CHECK(live != nullptr);
      DCG_CHECK(live.get() == it.payload().get());
      doc::KeyStringBuilder key;
      AppendIndexKey(*index, *live, &key);
      DCG_CHECK(key.view() == it.encoded_key().view());
    }
  }
}

}  // namespace dcg::store
