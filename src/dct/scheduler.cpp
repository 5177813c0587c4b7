#include "dct/scheduler.h"

#if defined(SEMLOCK_DCT)

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "dct/hooks.h"
#include "util/rng.h"

namespace semlock::dct {

namespace {

struct ThreadRec {
  enum class St { Ready, Running, Blocked, Finished };
  St st = St::Ready;
  std::function<bool()> pred;  // wait predicate while Blocked
  const char* point = "start";
  const void* object = nullptr;
};

// Everything the controller and the virtual threads share. Held via
// shared_ptr by every party so that threads abandoned after a deadlock
// verdict (parked on `cv` forever, then detached) never touch freed state.
struct Control {
  std::mutex mu;
  std::condition_variable cv;
  int running = -1;  // tid granted the step; -1 = controller decides
  int finished = 0;
  std::vector<ThreadRec> threads;
  std::uint64_t steps = 0;
  std::deque<ScheduleStep> trace;
  std::size_t trace_limit = 0;
};

// The calling thread's seat in a running schedule. A virtual thread
// finishes when this object is destroyed, not when its body returns, so
// thread-exit code such as the obs registry retirement, which takes a
// hooked spinlock, stays part of the schedule. Run unscheduled, it could
// hold that lock while the controller evaluated a blocked peer's
// predicate, and the schedule would be declared a deadlock although
// nothing was stuck. This relies on thread_local destructors running in
// reverse order of registration, which happens at first use: see
// worker_main.
struct VirtualThread {
  std::shared_ptr<Control> ctl;
  int tid = -1;

  ~VirtualThread() {
    if (ctl == nullptr) return;  // not a virtual thread
    std::unique_lock lk(ctl->mu);
    ctl->threads[static_cast<std::size_t>(tid)].st = ThreadRec::St::Finished;
    ++ctl->finished;
    ctl->running = -1;
    ctl->cv.notify_all();
  }
};

thread_local VirtualThread tls_vt;

void worker_main(std::shared_ptr<Control> ctl, int tid,
                 std::function<void()> body) {
  // Must stay the first thread_local this thread touches: that registers
  // tls_vt's destructor before any the body's thread_locals register, so
  // it runs after theirs.
  tls_vt.ctl = ctl;
  tls_vt.tid = tid;
  {
    std::unique_lock lk(ctl->mu);
    ctl->cv.wait(lk, [&] { return ctl->running == tid; });
  }
  body();
}

// Parks the calling virtual thread (Ready if it can be re-granted at will,
// Blocked with `pred` otherwise) and waits to be granted the next step.
void surrender(const char* point, const void* object,
               std::function<bool()> pred) {
  std::shared_ptr<Control> ctl = tls_vt.ctl;  // keep alive across the wait
  const int tid = tls_vt.tid;
  std::unique_lock lk(ctl->mu);
  ThreadRec& me = ctl->threads[static_cast<std::size_t>(tid)];
  me.st = pred ? ThreadRec::St::Blocked : ThreadRec::St::Ready;
  me.pred = std::move(pred);
  me.point = point;
  me.object = object;
  ctl->running = -1;
  ctl->cv.notify_all();
  // After a Deadlock/Livelock verdict the controller never grants again and
  // this wait is permanent by design (the thread is then detached).
  ctl->cv.wait(lk, [&] { return ctl->running == tid; });
}

std::atomic<bool> g_mutation_drop_announce_revalidate{false};
std::atomic<bool> g_mutation_drop_retract_rewake{false};
std::atomic<bool> g_mutation_drop_barrier_check{false};
std::atomic<bool> g_mutation_drop_packed_mask_check{false};

}  // namespace

bool scheduled() noexcept { return tls_vt.ctl != nullptr; }

void sched_point(const char* point, const void* object) {
  surrender(point, object, nullptr);
}

void spinlock_acquire(std::atomic<bool>& flag) {
  sched_point("spin.acquire", &flag);
  while (flag.exchange(true, std::memory_order_acquire)) {
    std::atomic<bool>* f = &flag;
    surrender("spin.blocked", f,
              [f] { return !f->load(std::memory_order_relaxed); });
  }
}

bool spinlock_try_acquire(std::atomic<bool>& flag) {
  sched_point("spin.try", &flag);
  return !flag.load(std::memory_order_relaxed) &&
         !flag.exchange(true, std::memory_order_acquire);
}

void spinlock_release(std::atomic<bool>& flag) {
  sched_point("spin.release", &flag);
  flag.store(false, std::memory_order_release);
}

void futex_wait(std::atomic<std::uint32_t>& word, std::uint32_t observed) {
  std::atomic<std::uint32_t>* w = &word;
  surrender("park.wait", w, [w, observed] {
    return w->load(std::memory_order_relaxed) != observed;
  });
}

void futex_wait(std::atomic<std::uint64_t>& word, std::uint64_t observed) {
  std::atomic<std::uint64_t>* w = &word;
  surrender("word.wait", w, [w, observed] {
    return w->load(std::memory_order_relaxed) != observed;
  });
}

void set_mutation_drop_announce_revalidate(bool on) noexcept {
  g_mutation_drop_announce_revalidate.store(on, std::memory_order_relaxed);
}

bool mutation_drop_announce_revalidate() noexcept {
  return g_mutation_drop_announce_revalidate.load(std::memory_order_relaxed);
}

void set_mutation_drop_retract_rewake(bool on) noexcept {
  g_mutation_drop_retract_rewake.store(on, std::memory_order_relaxed);
}

bool mutation_drop_retract_rewake() noexcept {
  return g_mutation_drop_retract_rewake.load(std::memory_order_relaxed);
}

void set_mutation_drop_barrier_check(bool on) noexcept {
  g_mutation_drop_barrier_check.store(on, std::memory_order_relaxed);
}

bool mutation_drop_barrier_check() noexcept {
  return g_mutation_drop_barrier_check.load(std::memory_order_relaxed);
}

void set_mutation_drop_packed_mask_check(bool on) noexcept {
  g_mutation_drop_packed_mask_check.store(on, std::memory_order_relaxed);
}

bool mutation_drop_packed_mask_check() noexcept {
  return g_mutation_drop_packed_mask_check.load(std::memory_order_relaxed);
}

const char* strategy_name(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::RoundRobin:
      return "round-robin";
    case StrategyKind::Random:
      return "random";
    case StrategyKind::Pct:
      return "pct";
  }
  return "unknown";
}

std::string ScheduleResult::to_string(std::size_t max_trace_lines) const {
  std::string out = "schedule ";
  switch (outcome) {
    case Outcome::Completed:
      out += "completed";
      break;
    case Outcome::Deadlock:
      out += "DEADLOCK";
      break;
    case Outcome::Livelock:
      out += "LIVELOCK (step bound exceeded)";
      break;
  }
  out += " after " + std::to_string(steps) + " steps";
  for (const StuckThread& s : stuck) {
    out += "\n  stuck: thread " + std::to_string(s.thread) + " at " +
           s.point + (s.blocked ? " (blocked)" : " (never ran)");
  }
  if (!trace.empty()) {
    const std::size_t n = std::min(max_trace_lines, trace.size());
    out += "\n  last " + std::to_string(n) + " decisions:";
    for (std::size_t i = trace.size() - n; i < trace.size(); ++i) {
      out += "\n    #" + std::to_string(trace[i].index) + " t" +
             std::to_string(trace[i].thread) + " " + trace[i].point;
    }
  }
  return out;
}

ScheduleResult Scheduler::run(std::vector<std::function<void()>> bodies) {
  const int n = static_cast<int>(bodies.size());
  auto ctl = std::make_shared<Control>();
  ctl->threads.resize(static_cast<std::size_t>(n));
  ctl->trace_limit = options_.trace_limit;

  util::Xoshiro256 rng(options_.seed);

  // Pct state: distinct random priorities (higher runs first); change points
  // drawn over the expected schedule length demote the running thread.
  std::vector<std::int64_t> priority(static_cast<std::size_t>(n));
  std::vector<std::uint64_t> change_points;
  std::int64_t low_water = 0;
  if (options_.strategy == StrategyKind::Pct) {
    for (int i = 0; i < n; ++i) priority[static_cast<std::size_t>(i)] = i + 1;
    for (int i = n - 1; i > 0; --i) {
      const auto j = static_cast<std::size_t>(
          rng.next_below(static_cast<std::uint64_t>(i) + 1));
      std::swap(priority[static_cast<std::size_t>(i)], priority[j]);
    }
    const std::uint64_t span =
        std::max<std::uint64_t>(1, options_.pct_expected_steps);
    for (int i = 0; i < options_.pct_priority_changes; ++i) {
      change_points.push_back(1 + rng.next_below(span));
    }
  }

  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers.emplace_back(worker_main, ctl, i, std::move(bodies[i]));
  }

  ScheduleResult result;
  int last_pick = -1;
  {
    std::unique_lock lk(ctl->mu);
    for (;;) {
      ctl->cv.wait(lk, [&] { return ctl->running == -1; });
      if (ctl->finished == n) break;

      // Promote blocked threads whose wait predicate now holds. Predicates
      // only read atomics and no virtual thread is mid-step here, so the
      // evaluation is race-free and deterministic.
      for (ThreadRec& t : ctl->threads) {
        if (t.st == ThreadRec::St::Blocked && t.pred && t.pred()) {
          t.st = ThreadRec::St::Ready;
          t.pred = nullptr;
        }
      }
      std::vector<int> ready;
      for (int i = 0; i < n; ++i) {
        if (ctl->threads[static_cast<std::size_t>(i)].st ==
            ThreadRec::St::Ready) {
          ready.push_back(i);
        }
      }
      if (ready.empty()) {
        result.outcome = ScheduleResult::Outcome::Deadlock;
        break;
      }
      if (ctl->steps >= options_.max_steps) {
        result.outcome = ScheduleResult::Outcome::Livelock;
        break;
      }

      int pick = ready.front();
      switch (options_.strategy) {
        case StrategyKind::RoundRobin:
          for (int r : ready) {
            if (r > last_pick) {
              pick = r;
              break;
            }
          }
          break;
        case StrategyKind::Random:
          pick = ready[static_cast<std::size_t>(
              rng.next_below(ready.size()))];
          break;
        case StrategyKind::Pct: {
          for (int r : ready) {
            if (priority[static_cast<std::size_t>(r)] >
                priority[static_cast<std::size_t>(pick)]) {
              pick = r;
            }
          }
          if (std::find(change_points.begin(), change_points.end(),
                        ctl->steps + 1) != change_points.end()) {
            priority[static_cast<std::size_t>(pick)] = --low_water;
          }
          break;
        }
      }
      last_pick = pick;

      ++ctl->steps;
      ThreadRec& t = ctl->threads[static_cast<std::size_t>(pick)];
      if (ctl->trace.size() == ctl->trace_limit) ctl->trace.pop_front();
      ctl->trace.push_back(ScheduleStep{ctl->steps, pick, t.point, t.object});
      t.st = ThreadRec::St::Running;
      ctl->running = pick;
      ctl->cv.notify_all();
    }

    result.steps = ctl->steps;
    result.trace = ctl->trace;
    if (result.hung()) {
      for (int i = 0; i < n; ++i) {
        const ThreadRec& t = ctl->threads[static_cast<std::size_t>(i)];
        if (t.st != ThreadRec::St::Finished) {
          result.stuck.push_back(ScheduleResult::StuckThread{
              i, t.point, t.st == ThreadRec::St::Blocked});
        }
      }
    }
  }

  if (result.hung()) {
    // Stuck workers sleep forever on `cv` (never granted again); they keep
    // the Control block alive through their shared_ptr and are abandoned.
    for (std::thread& w : workers) w.detach();
  } else {
    for (std::thread& w : workers) w.join();
  }
  return result;
}

}  // namespace semlock::dct

#endif  // SEMLOCK_DCT
