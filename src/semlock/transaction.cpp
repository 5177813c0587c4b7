#include "semlock/transaction.h"

#include <algorithm>

namespace semlock {

void Transaction::lv_ordered(std::span<DynTarget> targets) {
  // Sort by unique id; duplicates (aliasing variables) collapse through the
  // holds() check in lv_mode.
  std::sort(targets.begin(), targets.end(),
            [](const DynTarget& a, const DynTarget& b) {
              const auto ida = a.lk ? a.lk->unique_id() : 0;
              const auto idb = b.lk ? b.lk->unique_id() : 0;
              return ida < idb;
            });
  for (const auto& t : targets) lv_mode(t.lk, t.mode);
}

void Transaction::grow() {
  const std::size_t capacity = capacity_ * 2;
  auto spill = std::make_unique_for_overwrite<Entry[]>(capacity);
  std::copy(data_, data_ + size_, spill.get());
  spill_ = std::move(spill);
  data_ = spill_.get();
  capacity_ = capacity;
}

void Transaction::build_index() {
  if (!index_) {
    index_ = std::make_unique<std::unordered_set<const SemanticLock*>>();
  }
  index_->reserve(size_ * 2);
  for (const Entry& e : entries()) index_->insert(e.lk);
  index_live_ = true;
}

void Transaction::unlock_instance(SemanticLock* lk) {
  std::size_t kept = 0;
  for (const Entry& e : entries()) {
    if (e.lk == lk) {
      e.lk->unlock(e.mode);
    } else {
      data_[kept++] = e;
    }
  }
  size_ = kept;
  if (index_live_) index_->erase(lk);
}

void Transaction::unlock_all() {
  for (const Entry& e : entries()) e.lk->unlock(e.mode);
  if (size_ != 0) {
    // Epilogue marker: one event per non-empty release, with the number of
    // instances released in the mode field. Emitted after the unlocks so a
    // reader sees release events inside the [begin, unlock_all] span.
    SEMLOCK_OBS_EVENT(kUnlockAll, nullptr, static_cast<int>(size_));
  }
  size_ = 0;
  if (index_live_) {
    index_->clear();
    index_live_ = false;
  }
}

}  // namespace semlock
