// Compile-to-nothing-when-off hook layer for the observability subsystem,
// mirroring src/dct/hooks.h: built by default (CMake option SEMLOCK_OBS),
// and with the option OFF every macro expands to ((void)0) so production
// hot paths contain no obs code at all — CI verifies the OFF build has zero
// semlock::obs symbols.
//
// With the option ON the macros are runtime-gated on the process-wide
// switch (SEMLOCK_TRACE / obs::ScopedTraceEnable): one relaxed atomic load
// and a predictable branch when tracing is off. The lock mechanism does not
// use these macros — it gates on its ModeTable's trace_events flag directly
// (see lock_mechanism.cpp) so per-table overrides work without the global
// switch.
#pragma once

#if defined(SEMLOCK_OBS)

#include "obs/span.h"
#include "obs/trace.h"
#include "runtime/wait_registry.h"

// Process-level event (no owning LockMechanism): transaction epilogues,
// harness pass marks. `type` is an EventType enumerator name.
#define SEMLOCK_OBS_EVENT(type, instance, mode)                       \
  do {                                                                \
    if (::semlock::obs::runtime_enabled())                            \
      ::semlock::obs::emit(::semlock::obs::EventType::type,           \
                           (instance), (mode));                       \
  } while (0)

// Transaction identity: cheap enough (two thread-local ops) to run
// unconditionally so per-table trace overrides still see txn ids even when
// the global switch is off.
#define SEMLOCK_OBS_TXN_BEGIN() ::semlock::obs::txn_begin()
#define SEMLOCK_OBS_TXN_END() ::semlock::obs::txn_end()

// Span-recorder clock for the transaction exec/commit spans (obs/span.h):
// steady-now when span recording is active (global switch AND SEMLOCK_SPANS),
// 0 otherwise — the zero doubles as the "don't record" flag, keeping the
// disabled cost at two relaxed loads and a branch.
#define SEMLOCK_OBS_SPAN_CLOCK()                                       \
  (::semlock::obs::runtime_enabled() && ::semlock::obs::spans_enabled() \
       ? ::semlock::runtime::steady_now_ns()                            \
       : 0)

#else  // !SEMLOCK_OBS

#define SEMLOCK_OBS_EVENT(type, instance, mode) ((void)0)
#define SEMLOCK_OBS_TXN_BEGIN() ((void)0)
#define SEMLOCK_OBS_TXN_END() ((void)0)
#define SEMLOCK_OBS_SPAN_CLOCK() 0

#endif  // SEMLOCK_OBS
