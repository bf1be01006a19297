// Internal receive-side handler machinery shared by the transport
// implementations (socket reactor, in-proc pair, shm negotiator). Not
// part of the public API — include only from src/msg/*.cpp.
//
// Every transport hands MessageViews to ONE view handler; a message that
// arrives before the handler exists (or behind a replay in progress) is
// kept as an encoded frame, never as an owned Message.
//   * scratch buffers — per-thread stack of WireBuffers: in-proc sends
//     encode into one for the peer's view, and backlog frames are drawn
//     from it and returned to it after replay.
//   * HandlerSlot — the installed view handler plus the backlog.
//   * installAndReplay — the setViewHandler body: install, then replay the
//     backlog in order on the calling thread.
//   * deliverView — hand one received view to the handler, or copy its
//     frame into the backlog.
#pragma once

#include "common/log.hpp"
#include "msg/message.hpp"
#include "msg/transport.hpp"

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace simfs::msg::detail {

/// Per-thread stack of scratch WireBuffers. A STACK, not a single buffer:
/// a handler that replies inline over another in-proc transport nests a
/// second delivery while the outer view still references the outer
/// scratch buffer.
inline std::vector<WireBuffer>& scratchStack() {
  thread_local std::vector<WireBuffer> stack;
  return stack;
}

inline WireBuffer acquireScratch() {
  auto& stack = scratchStack();
  if (stack.empty()) return WireBuffer();
  WireBuffer b = std::move(stack.back());
  stack.pop_back();
  return b;
}

inline void releaseScratch(WireBuffer&& b) {
  auto& stack = scratchStack();
  if (stack.size() >= 8) return;
  b.shrink(64 * 1024);
  stack.push_back(std::move(b));
}

/// The view over a frame this process encoded itself.
inline MessageView viewOf(const WireBuffer& frame) {
  auto view = MessageView::parse(frame.payload());
  SIMFS_CHECK(view.isOk());  // our own encoder output always parses
  return *view;
}

/// The receive-side handler state shared by the transports. The handler
/// lives behind shared_ptr so delivery copies a pointer under the lock
/// instead of a std::function (whose captures would otherwise reallocate
/// on every message).
struct HandlerSlot {
  std::shared_ptr<Transport::ViewHandler> handler;
  bool draining = false;  ///< a replay is in flight
  std::vector<WireBuffer> backlog;  ///< encoded frames awaiting `handler`

  /// True when a delivery must append to the backlog: no handler yet, or
  /// a replay is running and the message must not overtake it.
  [[nodiscard]] bool mustQueue() const noexcept {
    return handler == nullptr || draining;
  }
};

/// setViewHandler body shared by the implementations: installs `h` and
/// replays the backlog in order on the calling thread. `draining` makes
/// concurrent deliveries append behind the replay instead of overtaking.
template <typename Lockable>
void installAndReplay(Lockable& mutex, HandlerSlot& slot,
                      Transport::ViewHandler h) {
  std::unique_lock lock(mutex);
  slot.handler =
      h ? std::make_shared<Transport::ViewHandler>(std::move(h)) : nullptr;
  if (slot.handler == nullptr || slot.backlog.empty()) return;
  slot.draining = true;
  while (slot.handler != nullptr && !slot.backlog.empty()) {
    std::vector<WireBuffer> batch;
    batch.swap(slot.backlog);
    const auto handler = slot.handler;
    lock.unlock();
    for (auto& frame : batch) {
      (*handler)(viewOf(frame));
      releaseScratch(std::move(frame));
    }
    lock.lock();
  }
  slot.draining = false;
}

/// Hands one received view to the slot's handler in place, or copies its
/// frame into the backlog when the message must wait.
template <typename Lockable>
void deliverView(Lockable& mutex, HandlerSlot& slot, const MessageView& view) {
  std::shared_ptr<Transport::ViewHandler> h;
  {
    std::lock_guard lock(mutex);
    if (slot.mustQueue()) {
      WireBuffer frame = acquireScratch();
      frame.beginFrame();
      frame.append(view.payload().data(), view.payload().size());
      frame.endFrame();
      slot.backlog.push_back(std::move(frame));
      return;
    }
    h = slot.handler;
  }
  (*h)(view);
}

}  // namespace simfs::msg::detail
