#include "apps/intruder.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <mutex>
#include <unordered_map>

#include "adt/striped_hash_map.h"
#include "adt/two_lock_queue.h"
#include "baseline/global_lock.h"
#include "baseline/two_pl.h"
#include "commute/builtin_specs.h"
#include "commute/symbolic.h"
#include "semlock/semantic_lock.h"
#include "util/align.h"
#include "util/rng.h"
#include "util/spinlock.h"

namespace semlock::apps {

namespace {

using commute::Value;

constexpr std::uint8_t kSignature[] = {'A', 'T', 'T', 'A', 'C', 'K', '!'};
constexpr std::size_t kFragmentBytes = 64;

// Reassembly buffer for one flow. Internally linearizable: under semantic
// locking, add() invocations commute and may run concurrently.
class Assembly {
 public:
  explicit Assembly(std::int32_t num_fragments)
      : fragments_(static_cast<std::size_t>(num_fragments)) {}

  // Stores a fragment; returns the number of fragments received so far.
  std::int32_t add(const Packet& p) {
    std::scoped_lock guard(lock_);
    auto& slot = fragments_[static_cast<std::size_t>(p.fragment_id)];
    if (slot.empty()) {
      slot = p.data;
      ++received_;
    }
    return received_;
  }

  std::int32_t total() const {
    return static_cast<std::int32_t>(fragments_.size());
  }

  // Reassembled payload (call only after completion).
  std::vector<std::uint8_t> reassemble() const {
    std::scoped_lock guard(lock_);
    std::vector<std::uint8_t> out;
    for (const auto& f : fragments_) out.insert(out.end(), f.begin(), f.end());
    return out;
  }

 private:
  mutable util::Spinlock lock_;
  std::vector<std::vector<std::uint8_t>> fragments_;
  std::int32_t received_ = 0;
};

bool contains_signature(const std::vector<std::uint8_t>& data) {
  if (data.size() < sizeof(kSignature)) return false;
  for (std::size_t i = 0; i + sizeof(kSignature) <= data.size(); ++i) {
    bool match = true;
    for (std::size_t j = 0; j < sizeof(kSignature); ++j) {
      if (data[i + j] != kSignature[j]) {
        match = false;
        break;
      }
    }
    if (match) return true;
  }
  return false;
}

// Shared detection bookkeeping + assembly arena.
class IntruderBase : public IntruderSystem {
 public:
  std::size_t flows_detected() const override {
    return flows_.load(std::memory_order_relaxed);
  }
  std::size_t attacks_found() const override {
    return attacks_.load(std::memory_order_relaxed);
  }

 protected:
  Assembly* new_assembly(std::int32_t fragments) {
    auto a = std::make_unique<Assembly>(fragments);
    std::scoped_lock guard(arena_lock_);
    arena_.push_back(std::move(a));
    return arena_.back().get();
  }

  // Signature scan (irrevocable local work, outside any lock).
  bool detect(const Assembly* a) {
    const bool attack = contains_signature(a->reassemble());
    flows_.fetch_add(1, std::memory_order_relaxed);
    if (attack) attacks_.fetch_add(1, std::memory_order_relaxed);
    return attack;
  }

 private:
  util::Spinlock arena_lock_;
  std::vector<std::unique_ptr<Assembly>> arena_;
  std::atomic<std::size_t> flows_{0};
  std::atomic<std::size_t> attacks_{0};
};

// --- Ours ------------------------------------------------------------------
//
// Lock sites (the Fig. 2 output):
//   map:   site 0 = {get(fid), put(fid,*), remove(fid)}  -> 64 alpha modes,
//          each self-conflicting, pairwise commuting: key striping.
//   set:   site 0 = {add(*)} -> one self-commuting mode (adds in parallel).
//   queue: site 0 = {enqueue(*)} (Pool spec: enqueues commute),
//          site 1 = {dequeue()} (exclusive).
class IntruderOurs final : public IntruderBase {
 public:
  explicit IntruderOurs(const IntruderParams& params)
      : map_table_(ModeTable::compile(
            commute::map_spec(),
            {commute::SymbolicSet(
                {commute::op("get", {commute::var("fid")}),
                 commute::op("put", {commute::var("fid"), commute::star()}),
                 commute::op("remove", {commute::var("fid")})})},
            ModeTableConfig{.abstract_values = params.abstract_values})),
        set_table_(ModeTable::compile(
            commute::set_spec(),
            {commute::SymbolicSet({commute::op("add", {commute::star()})})})),
        queue_table_(ModeTable::compile(
            commute::pool_spec(),
            {commute::SymbolicSet({commute::op("enqueue", {commute::star()})}),
             commute::SymbolicSet({commute::op("dequeue")})})),
        map_lock_(map_table_),
        queue_lock_(queue_table_),
        fragmented_(/*num_stripes=*/256) {}

  bool process(const Packet& p) override {
    // Decode: the Fig. 2 generated section (lock order map < set < queue;
    // queue released early).
    Assembly* completed = nullptr;
    {
      const Value vals[1] = {p.flow_id};
      const int mm = map_lock_.lock_site(0, vals);
      auto entry = fragmented_.get(p.flow_id);
      Entry assembly;
      if (!entry) {
        assembly.ptr = new_assembly(p.num_fragments);
        assembly.lock = std::make_shared<SemanticLock>(set_table_);
        fragmented_.put(p.flow_id, assembly);
      } else {
        assembly = *entry;
      }
      const int sm = assembly.lock->lock_site(0, {});
      const std::int32_t have = assembly.ptr->add(p);
      if (have == assembly.ptr->total()) {
        const int qm = queue_lock_.lock_site(0, {});
        completed_.enqueue(assembly.ptr);
        queue_lock_.unlock(qm);  // early release (Fig. 17 line 8)
        fragmented_.remove(p.flow_id);
        completed = assembly.ptr;  // hint: try detection next
      }
      assembly.lock->unlock(sm);
      map_lock_.unlock(mm);
    }

    // Detect: drain one completed flow, scanning outside any lock.
    bool attack = false;
    if (completed != nullptr) {
      const int dm = queue_lock_.lock_site(1, {});
      std::optional<Assembly*> a = completed_.dequeue();
      queue_lock_.unlock(dm);
      if (a) attack = detect(*a);
    }
    return attack;
  }

 private:
  struct Entry {
    Assembly* ptr = nullptr;
    std::shared_ptr<SemanticLock> lock;
  };

  ModeTable map_table_;
  ModeTable set_table_;
  ModeTable queue_table_;
  SemanticLock map_lock_;
  SemanticLock queue_lock_;
  adt::StripedHashMap<Value, Entry> fragmented_;
  adt::TwoLockQueue<Assembly*> completed_;
};

// --- Global ------------------------------------------------------------------
class IntruderGlobal final : public IntruderBase {
 public:
  bool process(const Packet& p) override {
    Assembly* hint = nullptr;
    {
      baseline::GlobalSection g(global_);
      hint = decode(p);
    }
    if (hint == nullptr) return false;
    Assembly* a = nullptr;
    {
      baseline::GlobalSection g(global_);
      if (!completed_.empty()) {
        a = completed_.front();
        completed_.pop_front();
      }
    }
    return a ? detect(a) : false;
  }

 private:
  Assembly* decode(const Packet& p) {
    auto it = fragmented_.find(p.flow_id);
    Assembly* a;
    if (it == fragmented_.end()) {
      a = new_assembly(p.num_fragments);
      fragmented_.emplace(p.flow_id, a);
    } else {
      a = it->second;
    }
    if (a->add(p) == a->total()) {
      completed_.push_back(a);
      fragmented_.erase(p.flow_id);
      return a;
    }
    return nullptr;
  }

  baseline::GlobalLock global_;
  std::unordered_map<Value, Assembly*> fragmented_;
  std::deque<Assembly*> completed_;
};

// --- 2PL ---------------------------------------------------------------------
class IntruderTwoPL final : public IntruderBase {
 public:
  bool process(const Packet& p) override {
    Assembly* hint = nullptr;
    {
      // Declared before the txn so it is destroyed after the txn releases:
      // once the erase below drops the map's copy, `e` keeps the assembly's
      // lock alive until it is unlocked.
      Entry e;
      baseline::TwoPLTxn txn;
      txn.acquire(&map_ilock_);  // order: map < assembly < queue
      auto it = fragmented_.find(p.flow_id);
      if (it == fragmented_.end()) {
        e.ptr = new_assembly(p.num_fragments);
        e.lock = std::make_shared<baseline::InstanceLock>();
        fragmented_.emplace(p.flow_id, e);
      } else {
        e = it->second;
      }
      txn.acquire(e.lock.get());
      if (e.ptr->add(p) == e.ptr->total()) {
        txn.acquire(&queue_ilock_);
        completed_.push_back(e.ptr);
        fragmented_.erase(p.flow_id);
        hint = e.ptr;
      }
    }
    if (hint == nullptr) return false;
    Assembly* a = nullptr;
    {
      baseline::TwoPLTxn txn;
      txn.acquire(&queue_ilock_);
      if (!completed_.empty()) {
        a = completed_.front();
        completed_.pop_front();
      }
    }
    return a ? detect(a) : false;
  }

 private:
  struct Entry {
    Assembly* ptr = nullptr;
    std::shared_ptr<baseline::InstanceLock> lock;
  };

  baseline::InstanceLock map_ilock_;
  baseline::InstanceLock queue_ilock_;
  std::unordered_map<Value, Entry> fragmented_;
  std::deque<Assembly*> completed_;
};

// --- Manual ------------------------------------------------------------------
// Ad-hoc synchronization combining lock striping (by flow id) with
// linearizable Map and Queue implementations, as in the paper.
class IntruderManual final : public IntruderBase {
 public:
  IntruderManual() : stripes_(kStripes), fragmented_(/*num_stripes=*/256) {}

  bool process(const Packet& p) override {
    Assembly* hint = nullptr;
    {
      CountedGuard g(stripe(p.flow_id));
      auto entry = fragmented_.get(p.flow_id);
      Assembly* a;
      if (!entry) {
        a = new_assembly(p.num_fragments);
        fragmented_.put(p.flow_id, a);
      } else {
        a = *entry;
      }
      if (a->add(p) == a->total()) {
        completed_.enqueue(a);  // linearizable queue: no extra lock
        fragmented_.remove(p.flow_id);
        hint = a;
      }
    }
    if (hint == nullptr) return false;
    std::optional<Assembly*> a = completed_.dequeue();
    return a ? detect(*a) : false;
  }

 private:
  static constexpr std::size_t kStripes = 64;
  util::Spinlock& stripe(Value v) {
    return stripes_[static_cast<std::size_t>(v) % kStripes].value;
  }

  std::vector<util::CacheLinePadded<util::Spinlock>> stripes_;
  adt::StripedHashMap<Value, Assembly*> fragmented_;
  adt::TwoLockQueue<Assembly*> completed_;
};

}  // namespace

PacketTrace PacketTrace::generate(const IntruderParams& params) {
  PacketTrace trace;
  util::Xoshiro256 rng(params.seed);
  for (std::size_t f = 0; f < params.num_flows; ++f) {
    const std::size_t length = 16 + rng.next_below(
        static_cast<std::uint64_t>(params.max_length - 15));
    std::vector<std::uint8_t> payload(length);
    for (auto& b : payload) {
      b = static_cast<std::uint8_t>(rng.next_below(256));
    }
    const bool attack =
        rng.chance_percent(static_cast<std::uint32_t>(params.attack_percent));
    if (attack && length >= sizeof(kSignature)) {
      const std::size_t pos =
          rng.next_below(length - sizeof(kSignature) + 1);
      std::copy(std::begin(kSignature), std::end(kSignature),
                payload.begin() + static_cast<std::ptrdiff_t>(pos));
      ++trace.num_attacks;
    }
    const std::int32_t nfrag = static_cast<std::int32_t>(
        (length + kFragmentBytes - 1) / kFragmentBytes);
    for (std::int32_t i = 0; i < nfrag; ++i) {
      Packet p;
      p.flow_id = static_cast<Value>(f);
      p.fragment_id = i;
      p.num_fragments = nfrag;
      const std::size_t lo = static_cast<std::size_t>(i) * kFragmentBytes;
      const std::size_t hi = std::min(lo + kFragmentBytes, length);
      p.data.assign(payload.begin() + static_cast<std::ptrdiff_t>(lo),
                    payload.begin() + static_cast<std::ptrdiff_t>(hi));
      trace.packets.push_back(std::move(p));
    }
  }
  // Interleave fragments of different flows (the shuffled arrival order).
  for (std::size_t i = trace.packets.size(); i > 1; --i) {
    const std::size_t j = rng.next_below(i);
    std::swap(trace.packets[i - 1], trace.packets[j]);
  }
  return trace;
}

std::unique_ptr<IntruderSystem> make_intruder_system(
    Strategy strategy, const IntruderParams& params) {
  switch (strategy) {
    case Strategy::Ours: return std::make_unique<IntruderOurs>(params);
    case Strategy::Global: return std::make_unique<IntruderGlobal>();
    case Strategy::TwoPL: return std::make_unique<IntruderTwoPL>();
    case Strategy::Manual: return std::make_unique<IntruderManual>();
    case Strategy::V8: return nullptr;  // not part of Fig. 24
  }
  return nullptr;
}

}  // namespace semlock::apps
