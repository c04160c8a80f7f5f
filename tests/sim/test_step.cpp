#include "sim/step.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "sim/resource.hpp"
#include "sim/scheduler.hpp"
#include "sim/task.hpp"

namespace {

using namespace s3asim::sim;

/// Appends its name to a log each time it fires.
class LogStep : public Step {
 public:
  LogStep(std::string name, std::vector<std::string>& log)
      : Step(&fire_stage), name_(std::move(name)), log_(&log) {}

 private:
  static void fire_stage(Step& step) {
    auto& self = static_cast<LogStep&>(step);
    self.log_->push_back(self.name_);
  }

  std::string name_;
  std::vector<std::string>* log_;
};

Process log_after(Scheduler& sched, Time delay, std::string name,
                  std::vector<std::string>& log) {
  co_await sched.delay(delay);
  log.push_back(std::move(name));
}

TEST(StepTest, StepsAndCoroutinesAtOneInstantRunInPushOrder) {
  Scheduler sched;
  std::vector<std::string> log;
  LogStep first("step 1", log);
  LogStep second("step 2", log);
  sched.schedule_at(&first, 10);
  // The process pushes its wakeup for 10 when it runs at 0, after both
  // steps were pushed.
  sched.spawn(log_after(sched, 10, "process", log));
  sched.schedule_at(&second, 10);
  sched.run();
  EXPECT_EQ(log, (std::vector<std::string>{"step 1", "step 2", "process"}));
  EXPECT_EQ(sched.now(), 10);
  EXPECT_EQ(sched.events_processed(), 4u);
}

/// Holds the resource for `hold`, then releases it.
Process hold_for(Scheduler& sched, Resource& resource, Time hold) {
  co_await resource.acquire();
  co_await sched.delay(hold);
  resource.release();
}

/// Takes the resource in its turn, logs, and releases it at once.
class GrabStep : public Step {
 public:
  GrabStep(std::string name, Resource& resource, std::vector<std::string>& log)
      : Step(&fire_stage),
        name_(std::move(name)),
        resource_(&resource),
        log_(&log) {}

  /// True if the slot was free; otherwise the step fires when handed it.
  bool try_grab() {
    if (!resource_->acquire_or_queue(*this)) return false;
    fire_stage(*this);
    return true;
  }

 private:
  static void fire_stage(Step& step) {
    auto& self = static_cast<GrabStep&>(step);
    self.log_->push_back(self.name_);
    self.resource_->release();
  }

  std::string name_;
  Resource* resource_;
  std::vector<std::string>* log_;
};

Process grab(Resource& resource, std::string name,
             std::vector<std::string>& log) {
  co_await resource.acquire();
  log.push_back(std::move(name));
  resource.release();
}

TEST(StepTest, ResourceHandsSlotsToStepsAndCoroutinesInArrivalOrder) {
  Scheduler sched;
  Resource resource(sched, 1);
  std::vector<std::string> log;
  GrabStep first("step 1", resource, log);
  GrabStep second("step 2", resource, log);
  sched.spawn(hold_for(sched, resource, 5));
  sched.run_until(1);
  EXPECT_FALSE(first.try_grab());
  sched.spawn(grab(resource, "process", log));
  sched.run_until(2);
  EXPECT_FALSE(second.try_grab());
  EXPECT_EQ(resource.queue_length(), 3u);
  sched.run();
  EXPECT_EQ(log, (std::vector<std::string>{"step 1", "process", "step 2"}));
  EXPECT_EQ(sched.now(), 5);
  EXPECT_EQ(resource.in_use(), 0u);
}

/// Throws when it fires.
class ThrowStep : public Step {
 public:
  ThrowStep() : Step(&fire_stage) {}

 private:
  static void fire_stage(Step&) { throw std::runtime_error("step failed"); }
};

TEST(StepTest, ThrowingStepSurfacesFromRunLikeAFailingProcess) {
  Scheduler sched;
  std::vector<std::string> log;
  ThrowStep thrower;
  sched.spawn(log_after(sched, 20, "survivor", log));
  sched.schedule_at(&thrower, 10);
  EXPECT_THROW(sched.run(), std::runtime_error);
  EXPECT_EQ(sched.now(), 10);
  // The error is reported once; the rest of the queue still runs.
  sched.run();
  EXPECT_EQ(log, (std::vector<std::string>{"survivor"}));
  EXPECT_EQ(sched.now(), 20);
}

/// Fires `remaining` more times, `gap` apart, then finishes as a process.
class CountdownStep : public Step {
 public:
  CountdownStep(Scheduler& sched, int remaining, Time gap)
      : Step(&fire_stage), sched_(&sched), remaining_(remaining), gap_(gap) {}

 private:
  static void fire_stage(Step& step) {
    auto& self = static_cast<CountdownStep&>(step);
    if (self.remaining_-- > 0) {
      self.sched_->schedule_at(&self, self.sched_->now() + self.gap_);
      return;
    }
    self.sched_->note_process_finished();
  }

  Scheduler* sched_;
  int remaining_;
  Time gap_;
};

TEST(StepTest, SpawnedStepsCountAsProcesses) {
  Scheduler sched;
  std::vector<std::string> log;
  CountdownStep a(sched, 2, 10);
  CountdownStep b(sched, 0, 10);
  sched.spawn(a);
  sched.spawn(b);
  sched.spawn(log_after(sched, 5, "process", log));
  EXPECT_EQ(sched.live_processes(), 3u);
  sched.run_until(5);
  EXPECT_EQ(sched.live_processes(), 1u);  // b and the process are done
  EXPECT_EQ(sched.finished_processes(), 2u);
  sched.run();
  EXPECT_EQ(sched.live_processes(), 0u);
  EXPECT_EQ(sched.finished_processes(), 3u);
  EXPECT_EQ(sched.now(), 20);
}

}  // namespace
