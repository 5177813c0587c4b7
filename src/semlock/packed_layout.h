// Bit layout of the Packed storage policy's single 64-bit lock word,
// precomputed once per ModeTable (ModeTable::compile) and shared immutably
// by every instance (docs/FAST_PATH.md §7).
//
// Word layout (least significant bits first):
//
//   [ mode 0 field | mode 1 field | ... | mode M-1 field |  (low bits)
//     ...spare... |
//     counting(P-1) closed(P-1) | ... | counting(0) closed(0) |
//     W ]                                                     (bit 63)
//
// Each mode field is a `bits_per_mode`-wide holder mini-counter; a field at
// its all-ones value (`field_max`) is SATURATED and further acquisitions of
// that mode divert to the arbitrated/wait tier until a release drops it.
// The per-partition closed/counting bits mirror the grant-policy barrier
// states of GrantSlot::barrier (docs/RUNTIME_WAITING.md §5), so the T1
// doorway reads everything from one load: `word & conflict_mask[m]`, then
// the saturation test, then the barrier bits through the shared doorway
// rule (a counting barrier charges its external budget). Bit 63
// (W) is the futex-word waiters-present bit: set by waiters before they
// sleep on the word via std::atomic::wait, cleared (then notify_all) by the
// wakeup paths, the classic futex-mutex protocol.
//
// Eligibility: at most kMaxPackedModes canonical modes and a field width of
// at least 4 bits once the aux bits are carved out. Partitions never exceed
// modes, so every table with <= 8 modes fits (8 modes x 5 bits + 1 + 16
// aux = 57 <= 64). Ineligible tables requested as Packed fall back to Flat.
#pragma once

#include <array>
#include <cstdint>

namespace semlock {

inline constexpr int kMaxPackedModes = 8;

struct PackedLayout {
  int num_modes = 0;
  int num_partitions = 0;
  std::uint32_t bits_per_mode = 0;
  // Saturation value of one (unshifted) field: (1 << bits_per_mode) - 1.
  std::uint64_t field_max = 0;
  // Futex-word waiters-present bit (bit 63).
  std::uint64_t waiters_bit = 0;
  // Per-mode field geometry: field m occupies bits
  // [shift[m], shift[m] + bits_per_mode).
  std::array<std::uint32_t, kMaxPackedModes> shift{};
  std::array<std::uint64_t, kMaxPackedModes> inc{};         // 1 << shift[m]
  std::array<std::uint64_t, kMaxPackedModes> field_mask{};  // field_max << shift[m]
  // OR of field_mask over conflicts_of(m) — `word & conflict_mask[m]` is
  // nonzero iff some conflicting mode (possibly m itself, when
  // self-conflicting) is held. This is conflicts_clear(m) as one AND.
  std::array<std::uint64_t, kMaxPackedModes> conflict_mask{};
  // Grant-barrier state bits, indexed by partition: closed == barrier state
  // 2 (arrivals divert), counting == state 1 (BoundedBypass budget
  // charging). Both clear == open.
  std::array<std::uint64_t, kMaxPackedModes> closed_bit{};
  std::array<std::uint64_t, kMaxPackedModes> counting_bit{};
};

}  // namespace semlock
