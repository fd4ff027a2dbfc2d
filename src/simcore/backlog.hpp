// A count of work waiting on one consumer that reports each zero crossing.
//
// A Strings backend thread's backlog is kept by three owners at once: its
// request channel counts packets delivered but not yet received, cudart
// counts the ops queued or in flight on its stream, and the worker counts
// the request it is handling. The Dispatcher only asks whether the sum is
// positive, so it needs to hear of exactly the changes that flip that
// answer: the listener runs after every add() that moves the count from
// zero to positive or back.
#pragma once

#include <functional>
#include <utility>

namespace strings::sim {

class Backlog {
 public:
  Backlog() = default;
  explicit Backlog(int count) : count_(count) {}
  Backlog(const Backlog&) = delete;
  Backlog& operator=(const Backlog&) = delete;

  int count() const { return count_; }
  bool positive() const { return count_ > 0; }

  void add(int delta) {
    const bool was = count_ > 0;
    count_ += delta;
    if (was != (count_ > 0) && on_edge_) on_edge_();
  }

  /// Runs `fn` after each add() that crosses zero; an empty `fn` stops it.
  void on_edge(std::function<void()> fn) { on_edge_ = std::move(fn); }

 private:
  int count_ = 0;
  std::function<void()> on_edge_;
};

}  // namespace strings::sim
