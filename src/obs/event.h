// The binary trace-event record of the semantic-lock observability layer.
//
// One event is four 64-bit words: timestamp, ADT instance, transaction id,
// and a packed (type, mode) word. Fixed width keeps the per-thread SPSC
// rings (src/obs/ring.h) branch-free on the writer side and lets the dump
// format (src/obs/export.h) be a straight copy of ring contents. The schema
// is documented for consumers in docs/OBSERVABILITY.md.
#pragma once

#include <cstdint>

namespace semlock::obs {

enum class EventType : std::uint32_t {
  kNone = 0,
  kAcquireBegin = 1,   // lock()/try_lock() entered for (instance, mode)
  kAcquireGrant = 2,   // acquisition completed via an arbitrated tier
  kContendedWait = 3,  // entered the contended wait loop
  kPark = 4,           // about to block in the ParkingLot
  kUnpark = 5,         // returned from a ParkingLot block
  kOptimisticHit = 6,  // acquisition won by the lock-free optimistic tier
  kRetract = 7,        // optimistic announcement retracted after validation
  kRelease = 8,        // unlock() of one hold
  kUnlockAll = 9,      // transaction epilogue; mode field = instances released
  kWatchdogStall = 10, // StallWatchdog reported this (instance, mode) starved
  kMark = 11,          // harness/bench annotation; mode field = pass index
  kAttribution = 12,   // classified contended wait; mode field = AttrClass
                       // index (obs/attribution.h)
  kBarrierDivert = 13, // commuting arrival diverted to the wait path by the
                       // grant-policy barrier (runtime/grant_policy.h)
  kGrantHandoff = 14,  // ticketed grant advanced the cursor and rewoke the
                       // partition for the next eligible waiter
};

// One past the highest EventType value: the size of per-type counter
// arrays (the live event tallies behind obs/window.h).
inline constexpr std::size_t kNumEventTypes = 15;

// Stable names for reports and the Chrome exporter.
const char* event_name(EventType type) noexcept;

// Packing for the ring's word array and the binary dump. The (type, mode)
// pair shares word 3: type in the high half, mode (as its unsigned bit
// pattern) in the low half.
inline std::uint64_t pack_type_mode(EventType type, std::int32_t mode) noexcept {
  return (static_cast<std::uint64_t>(type) << 32) |
         static_cast<std::uint32_t>(mode);
}

inline EventType unpack_type(std::uint64_t word) noexcept {
  return static_cast<EventType>(static_cast<std::uint32_t>(word >> 32));
}

inline std::int32_t unpack_mode(std::uint64_t word) noexcept {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(word));
}

struct Event {
  std::uint64_t ts_ns = 0;     // steady-clock nanoseconds
  std::uint64_t instance = 0;  // LockMechanism address; 0 = process-level
  std::uint64_t txn = 0;       // transaction id; 0 = outside any transaction
  EventType type = EventType::kNone;
  std::int32_t mode = -1;      // locking mode (or event-specific payload)

  // Fixed width for the ring and the dump:
  //   w0 ts_ns, w1 instance, w2 txn, w3 type<<32 | mode32
  static constexpr std::size_t kWords = 4;

  void encode(std::uint64_t* w) const noexcept {
    w[0] = ts_ns;
    w[1] = instance;
    w[2] = txn;
    w[3] = pack_type_mode(type, mode);
  }

  static Event decode(const std::uint64_t* w) noexcept {
    Event e;
    e.ts_ns = w[0];
    e.instance = w[1];
    e.txn = w[2];
    e.type = unpack_type(w[3]);
    e.mode = unpack_mode(w[3]);
    return e;
  }
};

}  // namespace semlock::obs
