#include "obs/flight.h"

#include <bit>
#include <cstring>
#include <map>
#include <mutex>
#include <string>

#include "obs/telemetry.h"
#include "util/stopwatch.h"

namespace t2c::obs {

const char* flight_kind_name(FlightKind k) {
  switch (k) {
    case FlightKind::kStep:
      return "step";
    case FlightKind::kRequestStart:
      return "request_start";
    case FlightKind::kRequestDone:
      return "request_done";
    case FlightKind::kSaturation:
      return "saturation";
    case FlightKind::kPoolRegion:
      return "pool_region";
    case FlightKind::kMark:
      return "mark";
  }
  return "?";
}

// ---- key table ------------------------------------------------------------
//
// Fixed array of fixed-width names. Interning locks and may allocate (the
// side map); resolution reads the array with an acquire on the published
// count — async-signal-safe. Entry 0 is the shared overflow key.

namespace {

constexpr std::uint32_t kMaxKeys = 1024;
constexpr std::size_t kKeyLen = 64;  // incl. NUL; longer names truncate

struct KeyTable {
  char names[kMaxKeys][kKeyLen];
  std::atomic<std::uint32_t> count{0};
  std::mutex mu;                           // interning only
  std::map<std::string, std::uint32_t> index;  // under mu

  KeyTable() {
    std::memcpy(names[0], "?", 2);
    count.store(1, std::memory_order_release);
  }
};

KeyTable& key_table() {
  static KeyTable* t = new KeyTable();  // leaked: handlers outlive exit
  return *t;
}

}  // namespace

std::uint32_t flight_key(const char* name) {
  KeyTable& t = key_table();
  std::string truncated(name == nullptr ? "" : name);
  if (truncated.size() >= kKeyLen) truncated.resize(kKeyLen - 1);
  std::lock_guard<std::mutex> lock(t.mu);
  auto it = t.index.find(truncated);
  if (it != t.index.end()) return it->second;
  const std::uint32_t id = t.count.load(std::memory_order_relaxed);
  if (id >= kMaxKeys) return 0;  // table full: shared overflow key
  std::memcpy(t.names[id], truncated.c_str(), truncated.size() + 1);
  t.count.store(id + 1, std::memory_order_release);
  t.index.emplace(std::move(truncated), id);
  return id;
}

const char* flight_key_name(std::uint32_t id) {
  KeyTable& t = key_table();
  const std::uint32_t n = t.count.load(std::memory_order_acquire);
  if (id >= n) return "?";
  return t.names[id];
}

// ---- rings ----------------------------------------------------------------

void FlightRing::set_name(const char* n) {
  if (n == nullptr) return;
  std::size_t i = 0;
  for (; i + 1 < sizeof(name_) && n[i] != '\0'; ++i) name_[i] = n[i];
  name_[i] = '\0';
}

void FlightRing::push(const FlightEvent& e) {
  const std::uint64_t h = head_.load(std::memory_order_relaxed);
  Slot& s = slots_[h & (kCapacity - 1)];
  // Seqlock write: odd while torn, even (2*(h+1)) once published. Readers
  // that see an odd value or a changed value skip the slot.
  s.seq.store(2 * h + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  s.words[0].store(static_cast<std::uint64_t>(e.t_ns),
                   std::memory_order_relaxed);
  s.words[1].store(std::bit_cast<std::uint64_t>(e.value),
                   std::memory_order_relaxed);
  s.words[2].store(e.req, std::memory_order_relaxed);
  s.words[3].store(e.key | static_cast<std::uint64_t>(e.kind) << 32,
                   std::memory_order_relaxed);
  s.seq.store(2 * (h + 1), std::memory_order_release);
  head_.store(h + 1, std::memory_order_release);
  if (e.kind == FlightKind::kStep) {
    // Owner-only writes: plain load + store, no read-modify-write.
    steps_.store(steps_.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
    last_step_key_.store(e.key, std::memory_order_relaxed);
    last_step_ns_.store(e.t_ns, std::memory_order_relaxed);
  }
}

std::size_t FlightRing::copy_range(std::uint64_t from, std::uint64_t to,
                                   FlightEvent* out) const {
  std::size_t n = 0;
  for (std::uint64_t i = from; i < to; ++i) {
    const Slot& s = slots_[i & (kCapacity - 1)];
    const std::uint64_t seq0 = s.seq.load(std::memory_order_acquire);
    if (seq0 != 2 * (i + 1)) continue;  // torn or already overwritten
    const std::uint64_t w0 = s.words[0].load(std::memory_order_relaxed);
    const std::uint64_t w1 = s.words[1].load(std::memory_order_relaxed);
    const std::uint64_t w2 = s.words[2].load(std::memory_order_relaxed);
    const std::uint64_t w3 = s.words[3].load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (s.seq.load(std::memory_order_relaxed) != seq0) continue;  // torn
    FlightEvent& e = out[n++];
    e.t_ns = static_cast<std::int64_t>(w0);
    e.value = std::bit_cast<double>(w1);
    e.req = w2;
    e.key = static_cast<std::uint32_t>(w3);
    e.kind = static_cast<FlightKind>(w3 >> 32);
  }
  return n;
}

std::size_t FlightRing::read_last(FlightEvent* out,
                                  std::size_t max_out) const {
  // Base before head: a reset publishes base = some earlier head, so the
  // head read after it can never be smaller.
  const std::uint64_t b = base_.load(std::memory_order_acquire);
  const std::uint64_t h = head_.load(std::memory_order_acquire);
  std::uint64_t want = h - b;
  if (want > kCapacity) want = kCapacity;
  if (want > max_out) want = max_out;
  // Oldest first among the newest `want` pushes.
  return copy_range(h - want, h, out);
}

std::size_t FlightRing::read_since(std::uint64_t* cursor, FlightEvent* out,
                                   std::uint64_t* lost) const {
  const std::uint64_t b = base_.load(std::memory_order_acquire);
  const std::uint64_t h = head_.load(std::memory_order_acquire);
  std::uint64_t from = *cursor < b ? b : *cursor;  // reset discarded these
  if (h - from > kCapacity) from = h - kCapacity;  // overwritten
  const std::size_t n = copy_range(from, h, out);
  *lost += (h - *cursor) - n;
  *cursor = h;
  return n;
}

void FlightRing::reset_for_test() {
  base_.store(head_.load(std::memory_order_acquire),
              std::memory_order_release);
  steps_.store(0, std::memory_order_relaxed);
  last_step_key_.store(kFlightNoKey, std::memory_order_relaxed);
  last_step_ns_.store(-1, std::memory_order_relaxed);
}

// ---- registry -------------------------------------------------------------
//
// Fixed array of ring pointers. Rings are allocated once (cold) and
// intentionally never freed: a signal handler must be able to walk the
// registry at any moment without coordinating with thread exit. An exiting
// thread releases its ring instead, and a later thread claims a released
// slot before growing the registry — so churn (pool rebuilds, short-lived
// clients) doesn't exhaust the table; only more than kMaxRings *live*
// threads loses recording on the excess ones (counted in lost_threads,
// visible in bundles). A released ring's events stay readable until the
// slot is reclaimed and overwritten.

namespace {

constexpr int kMaxRings = 192;
std::atomic<FlightRing*> g_rings[kMaxRings];
std::atomic<int> g_nrings{0};
std::atomic<int> g_lost_threads{0};

FlightRing* make_ring(const char* name) {
  const int n = flight_ring_count();
  for (int i = 0; i < n; ++i) {
    FlightRing* r = flight_ring(i);
    if (r != nullptr && r->try_claim()) {
      r->set_name(name);
      return r;
    }
  }
  const int slot = g_nrings.fetch_add(1, std::memory_order_relaxed);
  if (slot >= kMaxRings) {
    g_nrings.store(kMaxRings, std::memory_order_relaxed);
    g_lost_threads.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  FlightRing* r = new FlightRing();  // never freed (see registry comment)
  r->set_name(name);
  g_rings[slot].store(r, std::memory_order_release);
  return r;
}

struct RingTls {
  FlightRing* ring = nullptr;  // nullptr until registered; may stay null
  bool tried = false;          // registry full: don't retry every event
  ~RingTls() {
    if (ring != nullptr) ring->release();  // slot reusable by a new thread
  }
};
thread_local RingTls t_ring;

FlightRing* ring_for_thread(const char* name) {
  RingTls& tls = t_ring;
  if (tls.ring == nullptr && !tls.tried) {
    tls.tried = true;
    tls.ring = make_ring(name);
  }
  if (name != nullptr && tls.ring != nullptr) tls.ring->set_name(name);
  return tls.ring;
}

}  // namespace

int flight_ring_count() {
  const int n = g_nrings.load(std::memory_order_acquire);
  return n < kMaxRings ? n : kMaxRings;
}

FlightRing* flight_ring(int i) {
  return g_rings[i].load(std::memory_order_acquire);
}

void flight_record(FlightKind kind, std::uint32_t key, double value) {
  FlightRing* r = ring_for_thread(nullptr);
  if (r == nullptr) return;
  FlightEvent e;
  e.t_ns = mono_now_ns();
  e.value = value;
  e.req = current_request();
  e.key = key;
  e.kind = kind;
  r->push(e);
}

FlightRing* flight_register_thread(const char* name) {
  return ring_for_thread(name);
}

// ---- active request table -------------------------------------------------

namespace {

constexpr int kMaxActive = 256;
struct ActiveSlot {
  std::atomic<std::uint64_t> id{0};
  std::atomic<std::int64_t> start_ns{0};
};
ActiveSlot g_active[kMaxActive];

}  // namespace

int flight_request_begin(std::uint64_t id) {
  if (id == 0) return -1;
  const std::int64_t now = mono_now_ns();
  for (int i = 0; i < kMaxActive; ++i) {
    std::uint64_t expect = 0;
    if (g_active[i].id.compare_exchange_strong(expect, id,
                                               std::memory_order_acq_rel)) {
      g_active[i].start_ns.store(now, std::memory_order_release);
      return i;
    }
  }
  return -1;  // table full: request simply not listed in bundles
}

void flight_request_end(int slot) {
  if (slot < 0 || slot >= kMaxActive) return;
  g_active[slot].id.store(0, std::memory_order_release);
}

std::size_t flight_active_requests(FlightActiveRequest* out,
                                   std::size_t cap) {
  std::size_t n = 0;
  for (int i = 0; i < kMaxActive && n < cap; ++i) {
    const std::uint64_t id = g_active[i].id.load(std::memory_order_acquire);
    if (id == 0) continue;
    out[n].id = id;
    out[n].start_ns = g_active[i].start_ns.load(std::memory_order_acquire);
    ++n;
  }
  return n;
}

// ---- whole-recorder views -------------------------------------------------

FlightStats flight_stats() {
  FlightStats st;
  st.rings = flight_ring_count();
  for (int i = 0; i < st.rings; ++i) {
    const FlightRing* r = flight_ring(i);
    if (r == nullptr) continue;
    st.recorded += r->pushes();
    st.overwritten += r->overwritten();
    st.steps += r->steps();
    const std::int64_t last = r->last_step_ns();
    if (last > st.last_step_ns) {
      st.last_step_ns = last;
      st.last_step_key = r->last_step_key();
    }
  }
  st.lost_threads = g_lost_threads.load(std::memory_order_relaxed);
  return st;
}

std::size_t flight_collect(FlightTaggedEvent* out, std::size_t cap) {
  if (cap > kFlightCollectMax) cap = kFlightCollectMax;
  if (cap == 0) return 0;
  std::size_t n = 0;
  // Runs on the crash handler's 64 KiB alternate stack.
  FlightEvent scratch[kFlightCollectMax];
  static_assert(sizeof(scratch) <= 16 * 1024,
                "flight_collect scratch must fit the signal stack");
  const int limit = flight_ring_count();
  for (int i = 0; i < limit; ++i) {
    const FlightRing* r = flight_ring(i);
    if (r == nullptr) continue;
    const std::size_t got = r->read_last(scratch, cap);
    for (std::size_t j = 0; j < got; ++j) {
      FlightTaggedEvent te;
      te.e = scratch[j];
      te.thread = r->name();
      if (n < cap) {
        // Insertion sort by timestamp keeps the merged view oldest-first;
        // cap is at most kFlightCollectMax, so quadratic cost is fine for
        // a crash path that runs once.
        std::size_t k = n;
        while (k > 0 && out[k - 1].e.t_ns > te.e.t_ns) {
          out[k] = out[k - 1];
          --k;
        }
        out[k] = te;
        ++n;
      } else if (out[0].e.t_ns < te.e.t_ns) {
        // Full: evict the oldest, insert in order.
        std::size_t k = 0;
        while (k + 1 < n && out[k + 1].e.t_ns < te.e.t_ns) {
          out[k] = out[k + 1];
          ++k;
        }
        out[k] = te;
      }
    }
  }
  return n;
}

void flight_clear_for_test() {
  const int limit = flight_ring_count();
  for (int i = 0; i < limit; ++i) {
    FlightRing* r = flight_ring(i);
    if (r != nullptr) r->reset_for_test();
  }
  g_lost_threads.store(0, std::memory_order_relaxed);
  for (int i = 0; i < kMaxActive; ++i)
    g_active[i].id.store(0, std::memory_order_release);
}

}  // namespace t2c::obs
