#pragma once

// Discrete-event simulation engine: a clock plus the event queue, with an
// abort channel for simulated failures (OOM).

#include <stdexcept>
#include <string>

#include "sim/event_queue.hpp"

namespace sf {

// Thrown inside event handlers to abort the simulated run (e.g. a rank
// exceeded its memory budget).  Caught by SimRuntime::run, which may turn
// it into an injected crash of `rank` instead of failing the whole run.
struct SimAbort : std::runtime_error {
  explicit SimAbort(const std::string& what, int aborting_rank = -1)
      : std::runtime_error(what), rank(aborting_rank) {}
  int rank;
};

class SimEngine {
 public:
  SimTime now() const { return now_; }

  // Pre-size the event heap (SimRuntime calls this with an estimate from
  // the rank count so steady-state scheduling never reallocates).
  void reserve_events(std::size_t events) { queue_.reserve(events); }

  void schedule_at(SimTime t, EventQueue::Handler fn) {
    queue_.schedule(t, std::move(fn));
  }
  void schedule_after(double dt, EventQueue::Handler fn) {
    queue_.schedule(now_ + dt, std::move(fn));
  }

  // Run until the queue drains; returns the time of the last event.
  // SimAbort propagates to the caller with `now()` at the failure point.
  SimTime run() {
    while (step()) {
    }
    return now_;
  }

  // Run a single event; returns false once the queue is empty.  Lets a
  // caller catch SimAbort per event and keep the simulation going (fault
  // injection turns an OOM abort into a rank crash).
  bool step() {
    if (queue_.empty()) return false;
    now_ = queue_.next_time();
    queue_.run_next();
    return true;
  }

 private:
  EventQueue queue_;
  SimTime now_ = 0.0;
};

}  // namespace sf
