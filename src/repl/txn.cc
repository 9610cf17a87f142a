#include "repl/txn.h"

#include <utility>

#include "util/check.h"

namespace dcg::repl {

void TxnContext::Insert(const std::string& collection, doc::Value document) {
  DCG_CHECK(!aborted_);
  store::Collection& coll = db_->GetOrCreate(collection);
  const doc::Value* id = document.Find("_id");
  DCG_CHECK(id != nullptr);

  OplogEntry entry;
  entry.kind = OpKind::kInsert;
  entry.collection = collection;
  entry.key = *id;

  const bool inserted = coll.Insert(std::move(document), &entry.doc);
  DCG_CHECK_MSG(inserted, "duplicate _id inserted into %s",
                collection.c_str());
  entry.approx_bytes = entry.doc->ApproxSize();
  undo_.push_back({collection, entry.key, /*pre_image=*/nullptr});
  entries_.push_back(std::move(entry));
}

bool TxnContext::Update(const std::string& collection,
                        const doc::KeyString& id, const doc::UpdateSpec& spec) {
  DCG_CHECK(!aborted_);
  store::Collection& coll = db_->GetOrCreate(collection);
  store::DocPtr pre;
  OplogEntry entry;
  if (!coll.Update(id, spec, &pre, &entry.doc)) return false;
  undo_.push_back({collection, id, std::move(pre)});

  entry.kind = OpKind::kUpdate;
  entry.collection = collection;
  entry.key = id;
  entry.approx_bytes = entry.doc->ApproxSize();
  entries_.push_back(std::move(entry));
  return true;
}

bool TxnContext::Remove(const std::string& collection,
                        const doc::KeyString& id) {
  DCG_CHECK(!aborted_);
  store::Collection& coll = db_->GetOrCreate(collection);
  store::DocPtr pre;
  if (!coll.Remove(id, &pre)) return false;

  OplogEntry entry;
  entry.kind = OpKind::kRemove;
  entry.collection = collection;
  entry.key = id;
  entry.approx_bytes = 32 + pre->Find("_id")->ApproxSize();
  undo_.push_back({collection, id, std::move(pre)});
  entries_.push_back(std::move(entry));
  return true;
}

void TxnContext::Abort() {
  DCG_CHECK(!aborted_);
  for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
    store::Collection& coll = db_->GetOrCreate(it->collection);
    if (it->pre_image == nullptr) {
      coll.Remove(it->key);
    } else {
      coll.Put(it->key, it->pre_image);
    }
  }
  undo_.clear();
  entries_.clear();
  aborted_ = true;
}

}  // namespace dcg::repl
