// Benchmark-side actors for the simulator workloads: an honest PING client,
// a closed-loop BM-DoS flood, and a serial Sybil. Each is a light client on
// an AttackerNode session (the program receives only their frames) and
// counts what it sent, so the benchmark can check the victim against its
// own tally.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "attack/attacker.hpp"
#include "attack/crafter.hpp"
#include "layers.hpp"
#include "workloads.hpp"
#include "util/rng.hpp"

namespace perfbench {

/// Core's default -banscore threshold and Table I's increment for a
/// duplicate VERSION: an identifier is banned by the duplicate that brings
/// its score to the threshold.
constexpr int kBanThreshold = 100;
constexpr int kDuplicateVersionPoints = 1;
constexpr int kDuplicatesToBan =
    (kBanThreshold + kDuplicateVersionPoints - 1) / kDuplicateVersionPoints;

/// Tracks PING nonces a client is waiting on, in send order.
struct NonceLedger {
  std::deque<std::uint64_t> outstanding;
  std::uint64_t mismatches = 0;  // PONGs echoing no outstanding nonce
  std::uint64_t skipped = 0;     // PINGs passed over by a later PONG (lost)
  /// Consumes `nonce` and every older outstanding one; false (a mismatch)
  /// when it was never sent.
  bool Echo(std::uint64_t nonce) {
    const auto it = std::find(outstanding.begin(), outstanding.end(), nonce);
    if (it == outstanding.end()) {
      ++mismatches;
      return false;
    }
    skipped += static_cast<std::uint64_t>(it - outstanding.begin());
    outstanding.erase(outstanding.begin(), it + 1);
    return true;
  }
  /// Every PONG echoed the oldest outstanding nonce and none is missing.
  bool Exact() const { return mismatches == 0 && skipped == 0 && outstanding.empty(); }
};

/// Honest client: PING, wait for the PONG, pause `gap`, repeat. Records the
/// wall time of each exchange.
class SimPinger {
 public:
  SimPinger(bsattack::AttackerNode& node, bsim::SimTime gap, std::uint64_t seed)
      : node_(node), gap_(gap), rng_(seed) {}

  void Start(const bsproto::Endpoint& target) {
    session_ = node_.OpenSession(target, /*auto_handshake=*/true);
    frames_sent += 2;  // VERSION + VERACK of the handshake
    session_->on_ready = [this](bsattack::AttackSession&) { Ping(); };
    session_->on_message = [this](bsattack::AttackSession&, const bsproto::Message& msg) {
      const auto* pong = std::get_if<bsproto::PongMsg>(&msg);
      if (pong == nullptr) return;
      if (ledger.Echo(pong->nonce)) {
        const std::uint64_t now = NowNs();
        rtt_us.push_back(static_cast<double>(now - sent_ns_) / 1000.0);
      }
      if (running) node_.Sched().After(gap_, [this]() { Ping(); });
    };
  }

  bool running = true;
  std::vector<double> rtt_us;
  NonceLedger ledger;
  std::uint64_t frames_sent = 0;

 private:
  void Ping() {
    if (!running || session_->closed) return;
    const std::uint64_t nonce = rng_.Next();
    ledger.outstanding.push_back(nonce);
    sent_ns_ = NowNs();
    node_.Send(*session_, bsproto::PingMsg{nonce});
    ++frames_sent;
  }

  bsattack::AttackerNode& node_;
  bsim::SimTime gap_;
  bsutil::Rng rng_;
  bsattack::AttackSession* session_ = nullptr;
  std::uint64_t sent_ns_ = 0;
};

/// BM-DoS flood on one session: each burst is `pings` PINGs, one
/// unknown-command frame and one bad-checksum BLOCK (sizes cycle through a
/// seeded order of `sizes`), closed by a PING. Closed loop: the closing
/// PING's PONG starts the next burst after `gap`. Open loop: a burst every
/// `gap` whatever comes back (for a victim that sheds some of the PINGs).
/// Nothing in it earns a ban score.
class SimFlood {
 public:
  SimFlood(bsattack::AttackerNode& node, const bschain::ChainParams& chain,
           const std::vector<std::size_t>& sizes, int pings, bsim::SimTime gap,
           std::uint64_t seed, bool open_loop = false)
      : node_(node), pings_(pings), gap_(gap), open_loop_(open_loop), rng_(seed) {
    bsattack::Crafter crafter(chain, seed);
    for (std::size_t size : sizes) bogus_.push_back(crafter.BogusBlockFrame(chain.magic, size));
    unknown_ = crafter.UnknownCommandFrame(chain.magic, 64);
    for (std::size_t i = 0; i < bogus_.size(); ++i) order_.push_back(i);
    for (std::size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[rng_.Below(i)]);
    }
  }

  void Start(const bsproto::Endpoint& target) {
    session = node_.OpenSession(target, /*auto_handshake=*/true);
    frames_sent += 2;  // VERSION + VERACK of the handshake
    session->on_ready = [this](bsattack::AttackSession&) { Burst(); };
    session->on_message = [this](bsattack::AttackSession&, const bsproto::Message& msg) {
      const auto* pong = std::get_if<bsproto::PongMsg>(&msg);
      if (pong == nullptr) return;
      ledger.Echo(pong->nonce);
      if (!open_loop_ && ledger.outstanding.empty() && running) {
        node_.Sched().After(gap_, [this]() { Burst(); });
      }
    };
  }

  bool running = true;
  bsattack::AttackSession* session = nullptr;
  NonceLedger ledger;
  std::uint64_t frames_sent = 0;
  std::uint64_t bursts = 0;

 private:
  void Burst() {
    if (!running || session->closed) return;
    for (int i = 0; i <= pings_; ++i) {
      if (i == pings_) {
        node_.SendRawFrame(*session, unknown_);
        node_.SendRawFrame(*session, bogus_[order_[bursts % order_.size()]]);
        frames_sent += 2;
      }
      const std::uint64_t nonce = rng_.Next();
      ledger.outstanding.push_back(nonce);
      node_.Send(*session, bsproto::PingMsg{nonce});
      ++frames_sent;
    }
    ++bursts;
    if (open_loop_) node_.Sched().After(gap_, [this]() { Burst(); });
  }

  bsattack::AttackerNode& node_;
  int pings_;
  bsim::SimTime gap_;
  bool open_loop_;
  bsutil::Rng rng_;
  std::vector<bsutil::ByteVec> bogus_;
  bsutil::ByteVec unknown_;
  std::vector<std::size_t> order_;
};

/// Serial Sybil: each identifier completes the handshake, then sends a
/// duplicate VERSION followed by a PING, waits for the PONG, and repeats
/// until the victim bans it; then the next identifier connects.
class SimSybil {
 public:
  struct Identifier {
    bsproto::Endpoint endpoint;
    int duplicates = 0;
    std::uint64_t first_dup_ns = 0;
    bool closed = false;
  };

  SimSybil(bsattack::AttackerNode& node, bsim::SimTime gap, bsim::SimTime reconnect,
           std::uint64_t seed)
      : node_(node), gap_(gap), reconnect_(reconnect), rng_(seed) {}

  void Start(const bsproto::Endpoint& target) {
    target_ = target;
    Next();
  }

  bool running = true;
  std::vector<Identifier> ids;
  NonceLedger ledger;
  std::uint64_t frames_sent = 0;
  /// Frames of the last exchange each banned identifier sent after its
  /// banning VERSION (the victim drops them with the connection).
  std::uint64_t frames_unhandled = 0;

 private:
  void Next() {
    if (!running) return;
    bsattack::AttackSession* s = node_.OpenSession(target_, /*auto_handshake=*/true);
    const std::size_t index = ids.size();
    ids.push_back(Identifier{s->local, 0, 0, false});
    frames_sent += 2;  // VERSION + VERACK of the handshake
    s->on_ready = [this, s, index](bsattack::AttackSession&) { Tick(*s, index); };
    s->on_message = [this, s, index](bsattack::AttackSession&, const bsproto::Message& msg) {
      const auto* pong = std::get_if<bsproto::PongMsg>(&msg);
      if (pong == nullptr) return;
      ledger.Echo(pong->nonce);
      node_.Sched().After(gap_, [this, s, index]() { Tick(*s, index); });
    };
    s->on_closed = [this, index](bsattack::AttackSession&) {
      ids[index].closed = true;
      ledger.outstanding.clear();  // the PING behind the banning VERSION
      frames_unhandled += 1;
      node_.Sched().After(reconnect_, [this]() { Next(); });
    };
  }

  void Tick(bsattack::AttackSession& s, std::size_t index) {
    if (!running || s.closed) return;
    Identifier& id = ids[index];
    bsproto::VersionMsg dup;
    dup.nonce = rng_.Next();
    dup.addr_from.endpoint = id.endpoint;
    if (id.duplicates == 0) id.first_dup_ns = NowNs();
    ++id.duplicates;
    node_.Send(s, dup);
    const std::uint64_t nonce = rng_.Next();
    ledger.outstanding.push_back(nonce);
    node_.Send(s, bsproto::PingMsg{nonce});
    frames_sent += 2;
  }

  bsattack::AttackerNode& node_;
  bsim::SimTime gap_;
  bsim::SimTime reconnect_;
  bsutil::Rng rng_;
  bsproto::Endpoint target_;
};

}  // namespace perfbench
