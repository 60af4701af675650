#include "kompics/core.hpp"

#include <algorithm>
#include <cassert>
#include <new>
#include <stdexcept>

#include "common/logging.hpp"
#include "kompics/scheduler.hpp"
#include "kompics/system.hpp"

namespace kmsg::kompics {

namespace {

constexpr std::uint8_t kMailboxNodeClass = 0;  // 32-byte class

using detail::MailboxNode;

MailboxNode* make_node(PortInstance* at, EventPtr ev) {
  static_assert(sizeof(MailboxNode) <= EventArena::kClassBytes[kMailboxNodeClass]);
  void* block = EventArena::acquire(sizeof(MailboxNode), kMailboxNodeClass);
  auto* node = ::new (block) MailboxNode;
  node->at = at;
  node->ev = std::move(ev);
  return node;
}

void free_node(MailboxNode* node) {
  node->~MailboxNode();
  EventArena::release(node, kMailboxNodeClass);
}

}  // namespace

// --- PortInstance ---

PortInstance::PortInstance(ComponentCore* owner, const PortType& type,
                           bool provided)
    : owner_(owner), type_(type), provided_(provided) {}

void PortInstance::subscribe(std::unique_ptr<HandlerBase> handler) {
  handlers_.push_back(std::move(handler));
  // A new handler may match event types already cached; rebuild lazily.
  for (auto& line : dispatch_cache_) {
    line.built = false;
    line.entries.clear();
  }
}

void PortInstance::publish(EventPtr ev) {
  // Single-channel fast path (the overwhelmingly common wiring): the
  // reference is moved into the channel, so publish -> deliver -> mailbox
  // performs zero refcount operations.
  if (channels_.size() == 1) {
    Channel* ch = channels_[0];
    if (provided_) {
      ch->forward_indication(std::move(ev));
    } else {
      ch->forward_request(std::move(ev));
    }
    return;
  }
  // Broadcast to all connected channels. Index iteration (with the size
  // re-read each step) tolerates channels appended reentrantly from a
  // selector without copying the vector per event. Reentrant *disconnects*
  // are handled by forward_* checking the channel's detached state.
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    Channel* ch = channels_[i];
    if (provided_) {
      ch->forward_indication(ev);
    } else {
      ch->forward_request(ev);
    }
  }
}

void PortInstance::deliver(EventPtr ev) { owner_->enqueue(this, std::move(ev)); }

void PortInstance::dispatch(const EventPtr& ev) {
  const std::uint16_t tid = ev->event_type();
  if (tid == kEventTypeUnknown) {
    // Event did not come from make_event — match the slow way every time.
    dispatch_slow(ev);
    return;
  }
  if (tid >= dispatch_cache_.size()) dispatch_cache_.resize(tid + 1);
  DispatchLine& line = dispatch_cache_[tid];
  if (!line.built) {
    // One subtype walk (dynamic_cast per handler) for this event type;
    // every later event with the same type id replays the cached offsets.
    line.entries.clear();
    for (auto& h : handlers_) {
      std::ptrdiff_t offset = 0;
      if (h->match(*ev, &offset)) line.entries.push_back({h.get(), offset});
    }
    line.built = true;
  }
  if (line.entries.empty()) {
    // Unhandled events are silently dropped — with the broadcast channel
    // model it is often completely correct to ignore events (paper §II-A).
    ++dropped_;
    return;
  }
  // Index iteration: a handler subscribing on this port mid-dispatch clears
  // the line, which simply terminates the loop.
  for (std::size_t k = 0; k < line.entries.size(); ++k) {
    const DispatchEntry entry = line.entries[k];
    entry.handler->invoke(ev, entry.offset);
  }
}

void PortInstance::dispatch_slow(const EventPtr& ev) {
  bool handled = false;
  for (auto& h : handlers_) {
    std::ptrdiff_t offset = 0;
    if (h->match(*ev, &offset)) {
      h->invoke(ev, offset);
      handled = true;
    }
  }
  if (!handled) ++dropped_;
}

void PortInstance::detach(Channel* ch) {
  channels_.erase(std::remove(channels_.begin(), channels_.end(), ch),
                  channels_.end());
}

// --- Channel ---

Channel::Channel(PortInstance* provided_side, PortInstance* required_side)
    : provided_side_(provided_side), required_side_(required_side) {
  provided_side_->attach(this);
  required_side_->attach(this);
}

Channel::~Channel() { disconnect(); }

void Channel::forward_indication(EventPtr ev) {
  if (required_side_ == nullptr) return;
  if (ind_sel_ && !ind_sel_(*ev)) return;
  required_side_->deliver(std::move(ev));
}

void Channel::forward_request(EventPtr ev) {
  if (provided_side_ == nullptr) return;
  if (req_sel_ && !req_sel_(*ev)) return;
  provided_side_->deliver(std::move(ev));
}

void Channel::disconnect() {
  if (provided_side_ != nullptr) provided_side_->detach(this);
  if (required_side_ != nullptr) required_side_->detach(this);
  provided_side_ = nullptr;
  required_side_ = nullptr;
}

// --- ComponentDefinition ---

const std::string& ComponentDefinition::name() const { return core_->name(); }

PortInstance& ComponentDefinition::control() { return core_->control_port(); }

void ComponentDefinition::supervise(SupervisorPolicy policy) {
  core_->set_supervisor_policy(policy);
}

void ComponentDefinition::trigger(EventPtr ev, PortInstance& port) {
  if (port.owner() != core_) {
    throw std::logic_error("trigger: port does not belong to this component");
  }
  if (port.provided()) {
    if (!port.type().allows_indication(*ev)) {
      throw std::logic_error("trigger: event is not an indication of port type " +
                             port.type().name());
    }
  } else {
    if (!port.type().allows_request(*ev)) {
      throw std::logic_error("trigger: event is not a request of port type " +
                             port.type().name());
    }
  }
  port.publish(std::move(ev));
}

KompicsSystem& ComponentDefinition::system() { return core_->system(); }

const Clock& ComponentDefinition::clock() const {
  return core_->system().clock();
}

// --- ComponentCore ---

ComponentCore::ComponentCore(KompicsSystem& system, std::string name)
    : system_(system), name_(std::move(name)) {
  uf_parent_ = this;
  uf_members_.push_back(this);
  control_ = &port(port_type<ControlPort>(), true);
}

ComponentCore::~ComponentCore() {
  // Release events still sitting in the mailboxes (normal shutdown leaves
  // the queues drained; chaos/teardown paths may not).
  for (MailboxNode* n = mailbox_pop_private(); n != nullptr;
       n = mailbox_pop_private()) {
    free_node(n);
  }
  for (MailboxNode* n = mailbox_pop_public(); n != nullptr;
       n = mailbox_pop_public()) {
    free_node(n);
  }
}

void ComponentCore::adopt_child(ComponentCore* child) {
  children_.push_back(child);
  child->has_parent_ = true;
  child->parent_ = this;
  // Children inherit the parent's home shard (the Kompics vnode pattern:
  // a subtree is one placement unit), and the parent-child edge joins the
  // escalation cluster — lifecycle events flow through it.
  child->home_ = home_;
  system_.link_cores_(this, child);
}

void ComponentCore::adopt(std::unique_ptr<ComponentDefinition> def) {
  assert(!definition_);
  definition_ = std::move(def);
  definition_->core_ = this;
}

PortInstance& ComponentCore::port(const PortType& type, bool provided) {
  const auto key = std::make_pair(&type, provided);
  if (auto it = port_index_.find(key); it != port_index_.end()) {
    return *it->second;
  }
  ports_.push_back(std::make_unique<PortInstance>(this, type, provided));
  PortInstance* p = ports_.back().get();
  port_index_.emplace(key, p);
  return *p;
}

void ComponentCore::mailbox_push_private(MailboxNode* n) {
  // Plain pointer swizzling: callers guarantee thread confinement (the
  // simulation driver, or the core's home worker while the core is local).
  // n->next was zeroed at construction.
  if (priv_tail_ != nullptr) {
    priv_tail_->next.store(n, std::memory_order_relaxed);
  } else {
    priv_head_ = n;
  }
  priv_tail_ = n;
}

detail::MailboxNode* ComponentCore::mailbox_pop_private() {
  MailboxNode* n = priv_head_;
  if (n == nullptr) return nullptr;
  priv_head_ = n->next.load(std::memory_order_relaxed);
  if (priv_head_ == nullptr) priv_tail_ = nullptr;
  return n;
}

void ComponentCore::mailbox_push_public(MailboxNode* n) {
  n->next.store(nullptr, std::memory_order_relaxed);
  // seq_cst so the wakeup protocol can reason about this push relative to
  // the scheduled_ flag (see enqueue/execute).
  MailboxNode* prev = mailbox_head_.exchange(n, std::memory_order_seq_cst);
  // Between the exchange and this store the queue is momentarily split;
  // mailbox_pop_public detects that window (tail == head, next == nullptr)
  // and reports empty, which the scheduled_ protocol turns into a
  // re-schedule.
  prev->next.store(n, std::memory_order_release);
}

void ComponentCore::mailbox_push_chain(MailboxNode* first, MailboxNode* last) {
  // The chain was linked thread-locally (relaxed stores) by the producer's
  // outbox; the release store on prev->next publishes every interior link
  // and payload to the consumer in one edge. One exchange per burst instead
  // of one per event is the whole point of the batched handoff.
  last->next.store(nullptr, std::memory_order_relaxed);
  MailboxNode* prev = mailbox_head_.exchange(last, std::memory_order_seq_cst);
  prev->next.store(first, std::memory_order_release);
}

detail::MailboxNode* ComponentCore::mailbox_pop_public() {
  MailboxNode* tail = mailbox_tail_;
  MailboxNode* next = tail->next.load(std::memory_order_acquire);
  if (tail == &stub_) {
    if (next == nullptr) return nullptr;
    mailbox_tail_ = next;
    tail = next;
    next = next->next.load(std::memory_order_acquire);
  }
  if (next != nullptr) {
    mailbox_tail_ = next;
    return tail;
  }
  if (tail != mailbox_head_.load(std::memory_order_acquire)) {
    return nullptr;  // producer mid-push; caller re-checks mailbox_nonempty
  }
  // Single element left: cycle the stub back in so `tail` can be detached.
  mailbox_push_public(&stub_);
  next = tail->next.load(std::memory_order_acquire);
  if (next != nullptr) {
    mailbox_tail_ = next;
    return tail;
  }
  return nullptr;
}

// Consumer-side emptiness peek over both mailboxes. The public tail always
// points at the stub or at a still-pending node, so that queue is empty
// exactly when the tail is the stub with no successor and no producer has
// exchanged the head away. Only the run that holds scheduled_ may call it:
// it reads the consumer-owned tail and private queue.
bool ComponentCore::mailbox_nonempty() {
  if (priv_head_ != nullptr) return true;
  MailboxNode* tail = mailbox_tail_;
  if (tail != &stub_) return true;
  if (tail->next.load(std::memory_order_seq_cst) != nullptr) return true;
  return mailbox_head_.load(std::memory_order_seq_cst) != tail;
}

void ComponentCore::enqueue(PortInstance* at, EventPtr ev) {
  if (dead_.load(std::memory_order_acquire)) {
    // Tombstoned core: drop the event here instead of queueing it forever.
    // (A producer racing finalize_kill_ may still slip a node in; execute's
    // kDead sweep or the destructor reclaims it.)
    return;
  }
  MailboxNode* node = make_node(at, std::move(ev));
  if (pool_ == nullptr) {
    // Simulation-backed system: single-threaded by contract, so the push
    // and the scheduled_ flag are plain stores — no RMW on the hot path.
    mailbox_push_private(node);
    if (!scheduled_.load(std::memory_order_relaxed)) {
      scheduled_.store(true, std::memory_order_relaxed);
      system_.scheduler().schedule(this);
    }
    return;
  }
  detail::WorkerContext* ctx = detail::t_worker;
  if (ctx != nullptr && ctx->pool == pool_) {
    if (!shared_.load(std::memory_order_relaxed) && home_ == ctx->index) {
      // Local-mode core on its home worker: plain FIFO push. The closure
      // invariant (DESIGN.md §10) guarantees every producer for a local
      // core runs on this thread.
      mailbox_push_private(node);
      if (!scheduled_.load(std::memory_order_seq_cst) &&
          !scheduled_.exchange(true, std::memory_order_seq_cst)) {
        system_.scheduler().schedule(this);
      }
      return;
    }
    // Cross-core publish from a pool worker: chain thread-locally in the
    // worker's outbox; the scheduler splices the whole burst into the
    // destination with one exchange after this core's execute() finishes.
    if (ctx->outbox_append(this, node)) return;
    // Outbox fan-out exhausted: fall through to a direct push.
  }
  // External producer (main thread, timer thread, another system's worker).
  mailbox_push_public(node);
  // Wakeup protocol: if scheduled_ is already set, the execute() run that
  // owns it either pops our node or — after clearing the flag — re-checks
  // the public head with a seq_cst load ordered after our (seq_cst) push,
  // so the event cannot be stranded. The plain load first keeps the steady
  // state (already scheduled) free of lock-prefixed RMWs.
  if (!scheduled_.load(std::memory_order_seq_cst) &&
      !scheduled_.exchange(true, std::memory_order_seq_cst)) {
    system_.scheduler().schedule(this);
  }
}

void ComponentCore::execute() {
  const std::size_t max_events = system_.max_events_per_scheduling();
  std::size_t processed = 0;
  while (processed < max_events) {
    MailboxNode* node = mailbox_pop_private();
    if (node == nullptr) node = mailbox_pop_public();
    if (node == nullptr) break;
    ++processed;
    PortInstance* at = node->at;
    EventPtr ev = std::move(node->ev);
    free_node(node);
    if (state_ == LifeState::kDead) continue;  // tombstone: reclaim and skip
    const std::uint16_t tid = ev->event_type();
    if (at == control_) {
      // Runtime-internal supervision events: never reach user handlers.
      if (tid == event_type_id<detail::ChildFault>()) {
        on_child_fault_(static_cast<const detail::ChildFault&>(*ev).child);
        continue;
      }
      if (tid == event_type_id<detail::ChildKilled>()) {
        on_child_killed_();
        continue;
      }
    } else if (state_ == LifeState::kFailed) {
      // Quarantined after a fault: only control traffic (a supervisor's
      // Stop/Start/Kill) gets through until the component is restarted.
      continue;
    }
    ++events_handled_;
    bool faulted = false;
    try {
      at->dispatch(ev);
    } catch (const std::exception& e) {
      faulted = true;
      KMSG_WARN("kompics") << name_ << ": handler fault: " << e.what();
    } catch (...) {
      faulted = true;
      KMSG_WARN("kompics") << name_ << ": handler fault (non-std exception)";
    }
    // Lifecycle bookkeeping + cascade: Start/Stop/Kill on the control port
    // propagate down the hierarchy after the local handlers ran.
    if (at == control_) handle_control_(ev, tid);
    if (faulted) on_fault_();
    if (state_ == LifeState::kDead) break;  // finalized while handling Kill
  }
  // Decide emptiness while this run still owns the consumer side: once
  // scheduled_ is released another worker may run this core and write
  // mailbox_tail_ / priv_head_. Work left (budget exhausted, or a producer
  // mid-push) keeps the flag and goes to the back of the scheduler's FIFO.
  if (mailbox_nonempty()) {
    system_.scheduler().schedule(this);
    return;
  }
  if (pool_ == nullptr) {
    // Single-threaded contract: no concurrent producer to race the flag.
    scheduled_.store(false, std::memory_order_relaxed);
    return;
  }
  // Empty means the public head is the stub, and only this thread pushes to
  // the private queue. After the release, a producer that pushed since the
  // check has exchanged the head away; one that pushes later sees the flag
  // clear and schedules the core itself.
  scheduled_.store(false, std::memory_order_seq_cst);
  if (mailbox_head_.load(std::memory_order_seq_cst) != &stub_ &&
      !scheduled_.exchange(true, std::memory_order_seq_cst)) {
    system_.scheduler().schedule(this);
  }
}

// --- Supervision (all methods below run on the core's own execution) ---

void ComponentCore::handle_control_(const EventPtr& ev, std::uint16_t tid) {
  enum class Kind { kNone, kStart, kStop, kKill };
  Kind kind = Kind::kNone;
  if (tid != kEventTypeUnknown) {
    if (tid == event_type_id<Start>()) kind = Kind::kStart;
    else if (tid == event_type_id<Stop>()) kind = Kind::kStop;
    else if (tid == event_type_id<Kill>()) kind = Kind::kKill;
  } else {
    if (dynamic_cast<const Start*>(ev.get()) != nullptr) kind = Kind::kStart;
    else if (dynamic_cast<const Stop*>(ev.get()) != nullptr) kind = Kind::kStop;
    else if (dynamic_cast<const Kill*>(ev.get()) != nullptr) kind = Kind::kKill;
  }
  switch (kind) {
    case Kind::kNone:
      return;
    case Kind::kStart:
    case Kind::kStop:
      for (ComponentCore* child : children_) {
        child->enqueue(&child->control_port(), ev);
      }
      // Start is also the restart path out of quarantine: a supervisor's
      // Stop/Start pair normalizes a kFailed subtree back to kActive.
      state_ = kind == Kind::kStart ? LifeState::kActive : LifeState::kPassive;
      return;
    case Kind::kKill:
      begin_kill_(ev);
      return;
  }
}

void ComponentCore::begin_kill_(const EventPtr& ev) {
  if (kill_requested_) return;  // duplicate Kill while teardown is running
  kill_requested_ = true;
  // Two-phase post-order teardown: the local Kill handlers already ran
  // (user cleanup); now cascade Kill to every live child and wait for their
  // ChildKilled acks before finalizing. Children are killed in creation
  // order, so teardown order is deterministic under the simulation.
  pending_child_kills_ = 0;
  for (ComponentCore* child : children_) {
    if (child->is_dead()) continue;
    ++pending_child_kills_;
    child->enqueue(&child->control_port(), ev);
  }
  if (pending_child_kills_ == 0) finalize_kill_();
}

void ComponentCore::on_child_killed_() {
  if (!kill_requested_) return;  // ack from an escalation kill; nothing to do
  if (pending_child_kills_ > 0 && --pending_child_kills_ == 0) {
    finalize_kill_();
  }
}

void ComponentCore::finalize_kill_() {
  // Publish the terminal notification while the port machinery is still
  // live: subscribers on the control port observe children's Killed before
  // their parent's (post-order).
  control_->publish(make_event<Killed>());
  state_ = LifeState::kDead;
  dead_.store(true, std::memory_order_release);
  // Reclaim both mailboxes now — every queued arena node and the event
  // references it holds are released at kill time, not at system teardown.
  for (MailboxNode* n = mailbox_pop_private(); n != nullptr;
       n = mailbox_pop_private()) {
    free_node(n);
  }
  for (MailboxNode* n = mailbox_pop_public(); n != nullptr;
       n = mailbox_pop_public()) {
    free_node(n);
  }
  if (parent_ != nullptr && !parent_->is_dead()) {
    parent_->enqueue(&parent_->control_port(),
                     make_event<detail::ChildKilled>(this));
  }
  KMSG_DEBUG("kompics") << name_ << ": killed";
}

void ComponentCore::on_fault_() {
  if (state_ == LifeState::kDead) return;
  ++faults_;
  state_ = LifeState::kFailed;
  escalate_or_die_();
}

void ComponentCore::escalate_or_die_() {
  if (parent_ != nullptr && !parent_->is_dead()) {
    parent_->enqueue(&parent_->control_port(),
                     make_event<detail::ChildFault>(this));
    return;
  }
  // Unsupervised root fault: terminal — tear the subtree down cleanly.
  KMSG_WARN("kompics") << name_ << ": unsupervised fault, killing subtree";
  enqueue(control_, make_event<Kill>());
}

void ComponentCore::on_child_fault_(ComponentCore* child) {
  if (state_ == LifeState::kDead || kill_requested_) return;
  if (!supervises_) {
    // Not a supervisor: the subtree below this component is now suspect.
    // Quarantine and pass the fault up, attributed to this component, so a
    // supervising ancestor restarts (or kills) a consistent unit.
    ++escalations_;
    state_ = LifeState::kFailed;
    escalate_or_die_();
    return;
  }
  const TimePoint now = system_.clock().now();
  const TimePoint horizon = now - policy_.restart_window;
  restart_times_.erase(
      std::remove_if(restart_times_.begin(), restart_times_.end(),
                     [horizon](TimePoint t) { return t < horizon; }),
      restart_times_.end());
  if (restart_times_.size() >= policy_.max_restarts) {
    // Restart budget exhausted: kill the faulted child's subtree and
    // escalate the fault to the grandparent (or log at a root supervisor).
    ++escalations_;
    child->enqueue(&child->control_port(), make_event<Kill>());
    if (parent_ != nullptr && !parent_->is_dead()) {
      state_ = LifeState::kFailed;
      parent_->enqueue(&parent_->control_port(),
                       make_event<detail::ChildFault>(this));
    } else {
      KMSG_WARN("kompics") << name_ << ": restart budget exhausted, killed "
                           << child->name();
    }
    return;
  }
  restart_times_.push_back(now);
  ++restarts_issued_;
  if (policy_.restart == RestartPolicy::kOneForOne) {
    restart_target_(child);
  } else {
    for (ComponentCore* c : children_) {
      if (!c->is_dead()) restart_target_(c);
    }
  }
}

void ComponentCore::restart_target_(ComponentCore* target) {
  // Stop then Start: the pair cascades through the target's subtree,
  // clearing kFailed quarantines; Start handlers re-initialize state.
  target->enqueue(&target->control_port(), make_event<Stop>());
  target->enqueue(&target->control_port(), make_event<Start>());
}

}  // namespace kmsg::kompics
