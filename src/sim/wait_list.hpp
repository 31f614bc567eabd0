// Intrusive FIFO list of suspended coroutines, for the sync primitives.
//
// Event, Semaphore, Barrier and TaskGroup park their waiters here.  Each
// node is a member of the awaiter of the suspended `co_await`, so it lives
// in the waiting coroutine's own frame and parking or waking a waiter never
// allocates (Channel's PendingSend/PendingRecv follow the same rule).
//
// Lifetime rule: a node is linked from await_suspend until a waker unlinks
// it, and the waker unlinks it before scheduling the resume.  The awaiter
// outlives that window — its coroutine stays suspended until the resume
// runs — so every linked node is alive.  Destroying a coroutine while it is
// still parked (only engine teardown does that) leaves a dangling node:
// the list must not be used again afterwards, just as the handle it holds
// must never be resumed.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>

#include "sim/engine.hpp"

namespace paraio::sim {

class WaitList {
 public:
  /// A parked waiter; embed one in the awaiter and pass it to park().
  struct Node {
    std::coroutine_handle<> handle;
    Node* next = nullptr;
  };

  WaitList() = default;
  WaitList(const WaitList&) = delete;
  WaitList& operator=(const WaitList&) = delete;

  [[nodiscard]] bool empty() const noexcept { return head_ == nullptr; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Appends `node` for the suspending coroutine `h`.
  void park(Node& node, std::coroutine_handle<> h) noexcept {
    node.handle = h;
    node.next = nullptr;
    if (tail_ == nullptr) {
      head_ = &node;
    } else {
      tail_->next = &node;
    }
    tail_ = &node;
    ++size_;
  }

  /// Unlinks the oldest waiter and schedules its resume at the current
  /// instant.  Precondition: !empty().
  void wake_one(Engine& engine) {
    assert(head_ != nullptr);
    Node* node = head_;
    head_ = node->next;
    if (head_ == nullptr) tail_ = nullptr;
    --size_;
    const std::coroutine_handle<> h = node->handle;
    engine.call_in(0.0, [h] { h.resume(); });
  }

  /// Wakes every waiter, oldest first.
  void wake_all(Engine& engine) {
    while (!empty()) wake_one(engine);
  }

 private:
  Node* head_ = nullptr;
  Node* tail_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace paraio::sim
