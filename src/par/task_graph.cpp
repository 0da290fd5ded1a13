#include "par/task_graph.hpp"

#include <algorithm>
#include <string>
#include <thread>
#include <utility>

#include "par/parallel.hpp"
#include "support/error.hpp"
#include "support/trace.hpp"

namespace fhp::par {

// ---------------------------------------------------------------- deque

FHP_NO_ALLOC void TaskGraph::Deque::push(TaskId t) noexcept {
  const std::int64_t b = bottom.load(std::memory_order_seq_cst);
  // Capacity is the total task count and every task is enqueued exactly
  // once per run, so b never reaches the slot array's end.
  slots[static_cast<std::size_t>(b)].store(t, std::memory_order_seq_cst);
  bottom.store(b + 1, std::memory_order_seq_cst);
}

FHP_NO_ALLOC TaskGraph::TaskId TaskGraph::Deque::take() noexcept {
  std::int64_t b = bottom.load(std::memory_order_seq_cst) - 1;
  bottom.store(b, std::memory_order_seq_cst);
  std::int64_t t = top.load(std::memory_order_seq_cst);
  if (t > b) {  // empty: undo the reservation
    bottom.store(b + 1, std::memory_order_seq_cst);
    return -1;
  }
  const TaskId task = slots[static_cast<std::size_t>(b)].load(
      std::memory_order_seq_cst);
  if (t < b) return task;  // more than one element: no race possible
  // Last element: win or lose it against a concurrent thief via top.
  const bool won =
      top.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst);
  bottom.store(b + 1, std::memory_order_seq_cst);
  return won ? task : -1;
}

FHP_NO_ALLOC TaskGraph::TaskId TaskGraph::Deque::steal() noexcept {
  std::int64_t t = top.load(std::memory_order_seq_cst);
  const std::int64_t b = bottom.load(std::memory_order_seq_cst);
  if (t >= b) return -1;
  const TaskId task = slots[static_cast<std::size_t>(t)].load(
      std::memory_order_seq_cst);
  if (!top.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst)) {
    return -1;  // lost the race; the caller moves on to the next victim
  }
  return task;
}

// ------------------------------------------------------------- building

void TaskGraph::require_building(const char* what) const {
  if (frozen_) {
    throw ConfigError(std::string("TaskGraph::") + what +
                      ": graph is frozen; clear() before rebuilding");
  }
}

TaskGraph::TaskId TaskGraph::add_task(const char* name,
                                      std::function<void(int)> body) {
  require_building("add_task");
  FHP_REQUIRE(name != nullptr && *name != '\0',
              "task name must be a non-empty string literal");
  nodes_.push_back(Node{name, std::move(body), {}, 0});
  return static_cast<TaskId>(nodes_.size()) - 1;
}

void TaskGraph::add_edge(TaskId before, TaskId after) {
  require_building("add_edge");
  const auto n = static_cast<TaskId>(nodes_.size());
  FHP_REQUIRE(before >= 0 && before < n && after >= 0 && after < n,
              "add_edge: task id out of range");
  if (before == after) {
    throw ConfigError(std::string("TaskGraph::add_edge: self-dependency on "
                                  "task '") +
                      nodes_[static_cast<std::size_t>(before)].name + "'");
  }
  auto& succ = nodes_[static_cast<std::size_t>(before)].successors;
  if (std::find(succ.begin(), succ.end(), after) != succ.end()) {
    throw ConfigError(std::string("TaskGraph::add_edge: duplicate edge '") +
                      nodes_[static_cast<std::size_t>(before)].name +
                      "' -> '" +
                      nodes_[static_cast<std::size_t>(after)].name + "'");
  }
  succ.push_back(after);
  ++nodes_[static_cast<std::size_t>(after)].indegree;
}

void TaskGraph::freeze() {
  require_building("freeze");
  const auto n = nodes_.size();

  // Kahn's algorithm: a complete topological order proves acyclicity.
  std::vector<TaskId> topo;
  topo.reserve(n);
  std::vector<int> unmet(n);
  for (std::size_t i = 0; i < n; ++i) unmet[i] = nodes_[i].indegree;
  for (std::size_t i = 0; i < n; ++i) {
    if (unmet[i] == 0) topo.push_back(static_cast<TaskId>(i));
  }
  for (std::size_t head = 0; head < topo.size(); ++head) {
    for (const TaskId s : nodes_[static_cast<std::size_t>(topo[head])]
                              .successors) {
      if (--unmet[static_cast<std::size_t>(s)] == 0) topo.push_back(s);
    }
  }
  if (topo.size() != n) {
    std::string cycle;
    int listed = 0;
    for (std::size_t i = 0; i < n && listed < 4; ++i) {
      if (unmet[i] > 0) {
        if (listed++ > 0) cycle += ", ";
        cycle += nodes_[i].name;
      }
    }
    throw ConfigError("TaskGraph::freeze: dependency cycle through {" +
                      cycle + "}");
  }

  const auto lanes = static_cast<std::size_t>(arena_.lanes());
  remaining_ = std::vector<std::atomic<int>>(n);
  deques_ = std::vector<Deque>(lanes);
  for (auto& d : deques_) {
    d.slots = std::make_unique<std::atomic<TaskId>[]>(std::max<std::size_t>(
        n, 1));
  }
  ready_scratch_.assign(n, -1);
  frozen_ = true;
}

void TaskGraph::clear() {
  nodes_.clear();
  remaining_ = std::vector<std::atomic<int>>();
  deques_ = std::vector<Deque>();
  ready_scratch_.clear();
  frozen_ = false;
  first_error_ = nullptr;
}

// ------------------------------------------------------------- running

void TaskGraph::reset_run_state() noexcept {
  const auto n = nodes_.size();
  for (std::size_t i = 0; i < n; ++i) {
    remaining_[i].store(nodes_[i].indegree, std::memory_order_relaxed);
  }
  for (auto& d : deques_) {
    d.top.store(0, std::memory_order_relaxed);
    d.bottom.store(0, std::memory_order_relaxed);
  }
  unfinished_.store(static_cast<std::int64_t>(n),
                    std::memory_order_relaxed);
  abort_.store(false, std::memory_order_relaxed);
  first_error_ = nullptr;
}

FHP_NO_ALLOC void TaskGraph::execute_task(TaskId t, int lane) noexcept {
  Node& node = nodes_[static_cast<std::size_t>(t)];
  if (!abort_.load(std::memory_order_acquire)) {
    try {
      trace::SpanScope span(node.name);
      node.body(lane);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex_);
      if (!first_error_) first_error_ = std::current_exception();
      abort_.store(true, std::memory_order_release);
    }
  }
  // Propagate completion even when aborting: successors must still reach
  // zero so every lane's scheduler loop terminates.
  for (const TaskId s : node.successors) {
    if (remaining_[static_cast<std::size_t>(s)].fetch_sub(
            1, std::memory_order_acq_rel) == 1) {
      deques_[static_cast<std::size_t>(lane)].push(s);
    }
  }
  unfinished_.fetch_sub(1, std::memory_order_acq_rel);
}

void TaskGraph::scheduler_loop(int lane) noexcept {
  Deque& own = deques_[static_cast<std::size_t>(lane)];
  const int lanes = arena_.lanes();
  while (unfinished_.load(std::memory_order_acquire) > 0) {
    TaskId t = own.take();
    if (t < 0) {
      // Deterministic victim order (round robin from the next lane); the
      // outcome of each probe is timing-dependent, and nothing the graph
      // computes depends on it.
      for (int k = 1; k < lanes && t < 0; ++k) {
        t = deques_[static_cast<std::size_t>((lane + k) % lanes)].steal();
      }
    }
    if (t < 0) {
      std::this_thread::yield();
      continue;
    }
    execute_task(t, lane);
  }
}

void TaskGraph::finish_run() {
  FHP_CHECK(unfinished_.load(std::memory_order_acquire) == 0,
            "TaskGraph::run ended with unfinished tasks");
  if (first_error_) std::rethrow_exception(first_error_);
}

void TaskGraph::run() {
  if (!frozen_) throw ConfigError("TaskGraph::run: freeze() the graph first");
  if (nodes_.empty()) return;
  reset_run_state();
  // Seed the roots round-robin across the lane deques (single-threaded
  // here; the pool handshake inside run_region publishes these writes).
  int next_lane = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].indegree == 0) {
      deques_[static_cast<std::size_t>(next_lane)].push(
          static_cast<TaskId>(i));
      next_lane = (next_lane + 1) % arena_.lanes();
    }
  }
  arena_.run_region([this](int lane) { scheduler_loop(lane); });
  finish_run();
}

void TaskGraph::run_serial(Schedule mode, std::uint64_t seed) {
  if (!frozen_) {
    throw ConfigError("TaskGraph::run_serial: freeze() the graph first");
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    remaining_[i].store(nodes_[i].indegree, std::memory_order_relaxed);
  }
  // ready_scratch_ is used as a queue (kFifo, head advances) or a stack /
  // grab bag (kReverse / kRandom, tail shrinks): both stay within the
  // freeze-time capacity because each task is appended exactly once.
  std::size_t head = 0;
  std::size_t tail = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].indegree == 0) {
      ready_scratch_[tail++] = static_cast<TaskId>(i);
    }
  }
  std::uint64_t state = seed != 0 ? seed : 0x9e3779b97f4a7c15ull;
  std::size_t executed = 0;
  while (head < tail) {
    std::size_t pick;
    switch (mode) {
      case Schedule::kFifo:
        pick = head;
        break;
      case Schedule::kReverse:
        pick = tail - 1;
        break;
      default: {  // kRandom: seeded xorshift64
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        pick = head + static_cast<std::size_t>(state % (tail - head));
        break;
      }
    }
    const TaskId t = ready_scratch_[pick];
    if (mode == Schedule::kFifo) {
      ++head;
    } else {
      ready_scratch_[pick] = ready_scratch_[tail - 1];
      --tail;
    }
    Node& node = nodes_[static_cast<std::size_t>(t)];
    {
      trace::SpanScope span(node.name);
      node.body(0);
    }
    ++executed;
    for (const TaskId s : node.successors) {
      if (remaining_[static_cast<std::size_t>(s)].fetch_sub(
              1, std::memory_order_relaxed) == 1) {
        ready_scratch_[tail++] = s;
      }
    }
  }
  FHP_CHECK(executed == nodes_.size(),
            "TaskGraph::run_serial left tasks unexecuted");
}

}  // namespace fhp::par
