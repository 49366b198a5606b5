// loopback_durable: one victim configured as `bsnetd --store-dir` configures
// it (stock rules, durable store, anchors, no outbound dials) over
// RealTransport and kernel loopback sockets, restarted on a pre-written store
// whose address table is full.
//
// Four clients share the victim's event loop and run a fixed number of
// lockstep rounds; in each round every client sends its part at once and the
// round ends when each has its reply:
//   - honest:  one PING;
//   - flood:   16 PINGs + one unknown command + one bad-checksum BLOCK + a
//              closing PING;
//   - addr:    one 1,000-address ADDR followed by a PING;
//   - sybil:   one duplicate VERSION + PING until the identifier is banned;
//              the next round connects a fresh identifier.
// The store is real files under the checkout's work directory; fsync is
// counted but not performed (see TimedFs), so disk cost is carried by the exact
// fsync count rather than by a disk flush's noisy time.
#include <cstdio>
#include <filesystem>
#include <deque>
#include <map>
#include <set>

#include "attack/crafter.hpp"
#include "core/durable.hpp"
#include "core/event_loop.hpp"
#include "core/real_transport.hpp"
#include "proto/codec.hpp"
#include "sim/simfs.hpp"
#include "sim_actors.hpp"
#include "store/fsck.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kLoopbackIp = 0x7f000001;
constexpr std::size_t kTableSize = 16'384;  // AddrMan's full flat table
constexpr std::size_t kAddrPerFrame = 1'000;
constexpr int kPrewrittenBans = 8;
const std::vector<std::size_t> kBogusSizes = {300, 1200, 5000, 20000, 80000, 320000};

/// Lockstep rounds per second of --seconds.
constexpr int kRoundsPerSecond = 80;
constexpr int kFloodPings = 16;

/// A seeded loopback address outside 127.0.0.1 (nothing ever dials it: the
/// victim keeps no outbound slots).
bsproto::Endpoint RandomLoopbackEndpoint(bsutil::Rng& rng) {
  return {0x7f000000u | static_cast<std::uint32_t>(1 + rng.Below(0xfffffe)),
          static_cast<std::uint16_t>(1024 + rng.Below(60000))};
}

/// One client on its own connection. The workload runs in lockstep rounds:
/// every client starts its part of a round together, and the next round
/// starts when each has its last reply. A fixed round structure keeps the
/// interleaving, and so the latencies, the same from run to run.
class Client {
 public:
  Client(bsnet::RealTransport& rt, std::uint16_t port, std::uint32_t magic,
         std::uint64_t seed)
      : rng(seed), rt_(rt), port_(port), magic_(magic), decoder_(magic) {}
  virtual ~Client() = default;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Opens a connection and runs the version handshake; OnReady() follows.
  void Connect() {
    ready = false;
    got_version_ = got_verack_ = false;
    decoder_ = bsproto::StreamDecoder(magic_);
    conn_ = rt_.Connect({kLoopbackIp, port_});
    conn_->on_connected = [this](bool ok) {
      Span s(Layer::kClient);
      if (!ok) {
        ++connect_failures;
        return;
      }
      local = conn_->Local();
      conn_->SetDataSink([this](bsutil::ByteSpan data) { OnData(data); });
      bsproto::VersionMsg v;
      v.nonce = rng.Next();
      v.addr_from.endpoint = local;
      Send(v);
    };
    conn_->on_closed = [this]() {
      Span s(Layer::kClient);
      conn_ = nullptr;
      ready = false;
      OnClosed();
    };
  }

  /// Starts this client's part of a round; EndRound() reports it finished.
  virtual void Round() = 0;
  std::function<void()> on_round_done;

  bool ready = false;
  bsutil::Rng rng;
  NonceLedger ledger;
  bsproto::Endpoint local;
  std::uint64_t frames_sent = 0;
  std::uint64_t connect_failures = 0;
  std::uint64_t unexpected_closes = 0;

 protected:
  void Send(const bsproto::Message& msg) {
    conn_->Send(bsproto::EncodeMessage(magic_, msg));
    ++frames_sent;
  }
  void SendRaw(bsutil::ByteSpan frame) {
    conn_->Send(frame);
    ++frames_sent;
  }
  /// Sends a PING and remembers its nonce.
  void Ping() {
    const std::uint64_t nonce = rng.Next();
    ledger.outstanding.push_back(nonce);
    Send(bsproto::PingMsg{nonce});
  }
  void EndRound() {
    if (on_round_done) on_round_done();
  }
  virtual void OnReady() {}
  /// A PONG arrived (its nonce already checked against the ledger).
  virtual void OnPong() = 0;
  virtual void OnClosed() { ++unexpected_closes; }

 private:
  void OnData(bsutil::ByteSpan data) {
    Span s(Layer::kClient);
    decoder_.Feed(data);
    bsproto::DecodeResult r;
    while (conn_ != nullptr && decoder_.Next(r)) {
      if (r.status != bsproto::DecodeStatus::kOk) continue;
      if (std::holds_alternative<bsproto::VersionMsg>(r.message)) {
        got_version_ = true;
        Send(bsproto::VerackMsg{});
      } else if (std::holds_alternative<bsproto::VerackMsg>(r.message)) {
        got_verack_ = true;
      } else if (const auto* pong = std::get_if<bsproto::PongMsg>(&r.message)) {
        ledger.Echo(pong->nonce);
        OnPong();
        continue;
      }
      if (!ready && got_version_ && got_verack_) {
        ready = true;
        OnReady();
      }
    }
  }

  bsnet::RealTransport& rt_;
  std::uint16_t port_;
  std::uint32_t magic_;
  bsproto::StreamDecoder decoder_;
  bsnet::TransportConn* conn_ = nullptr;
  bool got_version_ = false;
  bool got_verack_ = false;
};

/// Honest peer: one PING per round, timed to its PONG.
class HonestClient final : public Client {
 public:
  using Client::Client;
  std::vector<double> rtt_us;

  void Round() override {
    sent_ns_ = NowNs();
    Ping();
  }

 protected:
  void OnPong() override {
    const std::uint64_t now = NowNs();
    rtt_us.push_back(static_cast<double>(now - sent_ns_) / 1000.0);
    EndRound();
  }

 private:
  std::uint64_t sent_ns_ = 0;
};

/// BM-DoS flood: PINGs, one unknown command and one bad-checksum BLOCK per
/// round (sizes cycle through a seeded order), closed by a PING.
class FloodClient final : public Client {
 public:
  FloodClient(bsnet::RealTransport& rt, std::uint16_t port, const bschain::ChainParams& chain,
              std::uint64_t seed)
      : Client(rt, port, chain.magic, seed) {
    bsattack::Crafter crafter(chain, seed);
    for (std::size_t size : kBogusSizes) {
      bogus_.push_back(crafter.BogusBlockFrame(chain.magic, size));
    }
    unknown_ = crafter.UnknownCommandFrame(chain.magic, 64);
    for (std::size_t i = 0; i < bogus_.size(); ++i) order_.push_back(i);
    for (std::size_t i = order_.size(); i > 1; --i) std::swap(order_[i - 1], order_[rng.Below(i)]);
  }

  void Round() override {
    for (int i = 0; i < kFloodPings; ++i) Ping();
    SendRaw(unknown_);
    SendRaw(bogus_[order_[bursts_++ % order_.size()]]);
    Ping();
  }

 protected:
  void OnPong() override {
    if (ledger.outstanding.empty()) EndRound();
  }

 private:
  std::vector<bsutil::ByteVec> bogus_;
  bsutil::ByteVec unknown_;
  std::vector<std::size_t> order_;
  std::size_t bursts_ = 0;
};

/// One 1,000-address ADDR per round, closed by a PING.
class AddrClient final : public Client {
 public:
  using Client::Client;

  void Round() override {
    bsproto::AddrMsg addr;
    for (std::size_t i = 0; i < kAddrPerFrame; ++i) {
      bsproto::TimedNetAddr rec;
      rec.time = static_cast<std::uint32_t>(1'600'000'000 + rng.Below(1'000'000));
      rec.addr.services = bsproto::kNodeNetwork;
      rec.addr.endpoint = RandomLoopbackEndpoint(rng);
      addr.addresses.push_back(rec);
    }
    Send(addr);
    Ping();
  }

 protected:
  void OnPong() override { EndRound(); }
};

/// Serial Sybil: a duplicate VERSION + PING per round until the identifier
/// is banned; the round after a ban connects the next identifier.
class SybilClient final : public Client {
 public:
  using Client::Client;
  struct Identifier {
    bsproto::Endpoint endpoint;
    int duplicates = 0;
    std::uint64_t first_dup_ns = 0;
    bool closed = false;
  };
  std::vector<Identifier> ids;
  std::uint64_t frames_unhandled = 0;

  void Round() override {
    if (!ready) {
      Connect();
      return;
    }
    Identifier& id = ids.back();
    bsproto::VersionMsg dup;
    dup.nonce = rng.Next();
    dup.addr_from.endpoint = local;
    if (id.duplicates == 0) id.first_dup_ns = NowNs();
    ++id.duplicates;
    Send(dup);
    Ping();
  }

 protected:
  void OnReady() override {
    ids.push_back({local, 0, 0, false});
    EndRound();
  }
  void OnPong() override { EndRound(); }
  void OnClosed() override {
    ids.back().closed = true;
    ledger.outstanding.clear();  // the PING behind the banning VERSION
    ++frames_unhandled;
    EndRound();
  }
};

/// Writes the store a previous run of the daemon would have left: a full
/// address table and a few bans. Returns what it wrote.
struct Prewritten {
  std::set<bsproto::Endpoint> addrs;
  std::set<bsproto::Endpoint> bans;
};

Prewritten PrewriteStore(bsstore::StoreFs& fs, const std::string& dir, std::uint64_t seed) {
  Prewritten out;
  bsutil::Rng rng(seed ^ 0x57023);
  bsnet::BanMan bans;
  bsnet::MisbehaviorTracker tracker(bsnet::CoreVersion::kV0_20, bsnet::BanPolicy::kBanScore,
                                    kBanThreshold, 1);
  bsnet::AddrMan addrs(seed);
  while (out.addrs.size() < kTableSize) {
    const bsproto::Endpoint ep = RandomLoopbackEndpoint(rng);
    if (out.addrs.insert(ep).second) addrs.Add(ep);
  }
  while (static_cast<int>(out.bans.size()) < kPrewrittenBans) {
    const bsproto::Endpoint ep = RandomLoopbackEndpoint(rng);
    if (out.bans.insert(ep).second) bans.Ban(ep, 365LL * 24 * bsim::kHour);
  }
  bsnet::DurableNodeState state(fs, dir, bans, tracker, addrs);
  state.Open(0);
  state.Flush();
  return out;
}

struct World {
  World(const Args& a, const std::string& store_root)
      : args(a),
        store_dir(store_root + "/victim"),
        loop(sched),
        fs(bsstore::RealFs::Instance()),
        victim_api(bsim::RealSocketApi::Instance(), Layer::kSys),
        client_api(bsim::RealSocketApi::Instance(), Layer::kClientSys, /*nodelay=*/true) {
    std::filesystem::remove_all(store_root);
    prewritten = PrewriteStore(fs, store_dir, args.seed);

    bsnet::RealTransportConfig vcfg;
    vcfg.bind_port = 0;  // kernel-assigned
    victim_rt = std::make_unique<bsnet::RealTransport>(loop, victim_api, vcfg);
    bsnet::Transport* transport = victim_rt.get();
    if (args.trace || !args.slow.empty()) {
      victim_layer = std::make_unique<LayerTransport>(*victim_rt, args.trace);
      transport = victim_layer.get();
    }
    bsnet::NodeConfig vc;
    vc.listen_port = 0;
    vc.target_outbound = 0;
    vc.rng_seed = args.seed;
    vc.enable_durable_store = true;
    vc.enable_anchors = true;
    vc.store_fs = &fs;
    vc.store_dir = store_dir;
    vc.profiler = args.trace ? &profiler : nullptr;
    const std::uint64_t replay_start = NowNs();
    victim = std::make_unique<bsnet::Node>(sched, *transport, vc);
    replay_s = static_cast<double>(NowNs() - replay_start) / 1e9;

    // Replay must restore exactly what was written.
    std::set<bsproto::Endpoint> banned;
    for (const bsproto::Endpoint& ep : victim->Bans().Snapshot()) banned.insert(ep);
    replay_exact = victim->Durable() != nullptr && banned == prewritten.bans &&
                   victim->Addrs().Size() == prewritten.addrs.size();
    for (const bsproto::Endpoint& ep : prewritten.addrs) {
      replay_exact = replay_exact && victim->Addrs().Contains(ep);
    }

    victim->on_frame = [this](std::size_t bytes, bsproto::DecodeStatus) {
      ++frames;
      frame_bytes += bytes;
    };
    victim->on_misbehavior = [this](const bsnet::Peer& peer, bsnet::Misbehavior,
                                    const bsnet::MisbehaviorOutcome&) {
      scored.insert(peer.remote);
    };
    victim->on_peer_banned = [this](const bsnet::Peer& peer) { ban_ns[peer.remote] = NowNs(); };
    if (victim_layer) victim_layer->Attach(*victim);
    victim->Start();
    port = victim_rt->BoundPort(0);

    bsnet::RealTransportConfig ccfg;
    ccfg.bind_port = 1;  // clients never listen
    client_rt = std::make_unique<bsnet::RealTransport>(loop, client_api, ccfg);
    const std::uint32_t magic = vc.chain.magic;
    honest = std::make_unique<HonestClient>(*client_rt, port, magic, args.seed ^ 1);
    flood = std::make_unique<FloodClient>(*client_rt, port, vc.chain, args.seed ^ 2);
    addr = std::make_unique<AddrClient>(*client_rt, port, magic, args.seed ^ 3);
    sybil = std::make_unique<SybilClient>(*client_rt, port, magic, args.seed ^ 4);
    clients = {honest.get(), flood.get(), addr.get(), sybil.get()};
    for (Client* c : clients) {
      c->on_round_done = [this]() { RoundDone(); };
      c->Connect();
    }
    // The sybil's first identifier reports its handshake as a round's end.
    open_parts = 1;
    const std::uint64_t deadline = NowNs() + 30ull * 1'000'000'000ull;
    while (NowNs() < deadline &&
           !(honest->ready && flood->ready && addr->ready && sybil->ready)) {
      loop.PumpOnce(10);
    }
    // Enough rounds for a few bans even in a short run. An identifier takes
    // kDuplicatesToBan + 1 rounds; the run must not end on the round that
    // connects the next one, whose VERACK would still be in flight.
    rounds_total = std::max(kRoundsPerSecond * args.seconds, 3 * (kDuplicatesToBan + 1) + 1);
  }

  void StartRound() {
    open_parts = static_cast<int>(clients.size());
    for (Client* c : clients) c->Round();
  }

  void RoundDone() {
    if (--open_parts > 0 || !measuring) return;
    if (++rounds_done < rounds_total) {
      StartRound();
    } else {
      measuring = false;
    }
  }

  Args args;
  std::string store_dir;
  bsim::Scheduler sched;
  bsnet::EventLoop loop;
  TimedFs fs;
  TimedSocketApi victim_api;
  TimedSocketApi client_api;
  bsobs::HotpathProfiler profiler;
  Prewritten prewritten;
  std::unique_ptr<bsnet::RealTransport> victim_rt;
  std::unique_ptr<LayerTransport> victim_layer;
  std::unique_ptr<bsnet::Node> victim;
  std::unique_ptr<bsnet::RealTransport> client_rt;
  std::unique_ptr<HonestClient> honest;
  std::unique_ptr<FloodClient> flood;
  std::unique_ptr<AddrClient> addr;
  std::unique_ptr<SybilClient> sybil;
  std::vector<Client*> clients;
  int open_parts = 0;
  int rounds_done = 0;
  int rounds_total = 0;
  bool measuring = false;
  std::uint16_t port = 0;
  double replay_s = 0.0;
  bool replay_exact = false;

  std::uint64_t frames = 0;
  std::uint64_t frame_bytes = 0;
  std::set<bsproto::Endpoint> scored;
  std::map<bsproto::Endpoint, std::uint64_t> ban_ns;
};

/// Bans in a store directory, as a fresh node would replay them.
std::set<bsproto::Endpoint> ReplayBans(bsstore::StoreFs& fs, const std::string& dir,
                                       bsim::SimTime now, bool& opened) {
  bsnet::BanMan bans;
  bsnet::MisbehaviorTracker tracker(bsnet::CoreVersion::kV0_20, bsnet::BanPolicy::kBanScore,
                                    kBanThreshold, 1);
  bsnet::AddrMan addrs(1);
  bsnet::DurableNodeState state(fs, dir, bans, tracker, addrs);
  opened = state.Open(now);
  std::set<bsproto::Endpoint> out;
  for (const bsproto::Endpoint& ep : bans.Snapshot()) out.insert(ep);
  return out;
}

}  // namespace

int RunLoopbackDurable(const Args& args) {
  Result result;
  EndToEnd e2e;
  const WorkDir work("loopback_durable");
  // A set-up takes under 20 ms: 13 before the measured phase and 12 after
  // it. At most one world, and so four client sockets, exists at a time.
  const std::function<std::unique_ptr<World>()> build = [&]() {
    return std::make_unique<World>(args, work.Path());
  };
  std::vector<double> setup_times;
  std::unique_ptr<World> w = TimeBuilds(13, build, setup_times);
  result.Check(w->replay_exact, "replay restores exactly the pre-written store");
  result.Check(w->victim_rt->LastListenError() == 0 && w->port != 0, "the victim listens");

  // ---- Measured phase: every client runs its fixed rounds ----
  const std::uint64_t frames0 = w->frames;
  const std::uint64_t bytes0 = w->frame_bytes;
  const std::uint64_t evictions0 = CounterValue(*w->victim, "bs_addrman_evicted_total");
  const std::uint64_t updates0 = CounterValue(*w->victim, "bs_ban_score_events_total");
  w->fs.ResetCounts();
  w->victim_api.ResetCounts();
  w->profiler.Reset();
  P().Reset();
  result.Check(w->honest->ready && w->flood->ready && w->addr->ready && w->sybil->ready,
               "every client completes its handshake");
  const std::uint64_t start_ns = NowNs();
  w->measuring = true;
  w->StartRound();
  // A wedged run fails the checks below instead of hanging.
  const std::uint64_t deadline = start_ns + 150ull * 1'000'000'000ull;
  while (w->measuring && NowNs() < deadline) {
    Span s(Layer::kStep);
    w->loop.PumpOnce(10);
  }
  e2e.measured_s = static_cast<double>(NowNs() - start_ns) / 1e9;
  result.Check(w->rounds_done == w->rounds_total, "every round completed");

  e2e.frames = w->frames - frames0;
  e2e.fsyncs = w->fs.fsyncs;
  e2e.honest_rtt_us = w->honest->rtt_us;
  SybilClient& sybil = *w->sybil;
  for (const SybilClient::Identifier& id : sybil.ids) {
    const auto it = w->ban_ns.find(id.endpoint);
    if (id.closed && it != w->ban_ns.end()) {
      e2e.time_to_ban_ms.push_back(static_cast<double>(it->second - id.first_dup_ns) / 1e6);
    }
  }
  LayerCounts lc;
  lc.frames = e2e.frames;
  lc.frame_bytes = w->frame_bytes - bytes0;
  lc.bans = w->victim->PeersBanned();
  lc.score_updates = CounterValue(*w->victim, "bs_ban_score_events_total") - updates0;
  lc.addr_evictions = CounterValue(*w->victim, "bs_addrman_evicted_total") - evictions0;
  lc.shed_frames = w->victim->RateLimitedFrames() + w->victim->GovernorShedFrames();
  lc.replay_s = w->replay_s;
  lc.fs = &w->fs;
  lc.victim_api = &w->victim_api;

  // ---- Correctness, computed apart from the program ----
  std::set<bsproto::Endpoint> caused;
  std::set<bsproto::Endpoint> identifiers;
  for (const SybilClient::Identifier& id : sybil.ids) {
    identifiers.insert(id.endpoint);
    if (!id.closed) {
      result.Check(id.duplicates < kDuplicatesToBan, "the live Sybil identifier is unbanned");
      continue;
    }
    caused.insert(id.endpoint);
    result.Check(id.duplicates == kDuplicatesToBan,
                 "Sybil identifier banned after " + std::to_string(id.duplicates) +
                     " duplicate VERSIONs, expected " + std::to_string(kDuplicatesToBan));
  }
  result.Check(!caused.empty(), "the serial Sybil got identifiers banned");
  for (const bsproto::Endpoint& ep : w->scored) {
    result.Check(identifiers.count(ep) == 1, "only Sybil identifiers are ever scored");
  }
  std::set<bsproto::Endpoint> expected_bans = w->prewritten.bans;
  expected_bans.insert(caused.begin(), caused.end());
  std::set<bsproto::Endpoint> live_bans;
  for (const bsproto::Endpoint& ep : w->victim->Bans().Snapshot()) live_bans.insert(ep);
  result.Check(live_bans == expected_bans, "the victim banned exactly the Sybil identifiers");
  const bsnet::Peer* flood_peer = w->victim->FindPeerByRemote(w->flood->local);
  result.Check(flood_peer != nullptr && w->victim->Tracker().Score(flood_peer->id) == 0,
               "the flood session ends connected with score 0");
  for (const Client* c : w->clients) {
    result.Check(c->ledger.Exact(),
                 "every PONG echoes its PING's nonce");
    result.Check(c->connect_failures == 0, "every client connects");
  }
  result.Check(w->honest->unexpected_closes + w->flood->unexpected_closes +
                       w->addr->unexpected_closes == 0,
               "no honest, flood or addr session is dropped");
  const std::uint64_t sent = w->honest->frames_sent + w->flood->frames_sent +
                             w->addr->frames_sent + sybil.frames_sent;
  result.Check(w->frames == sent - sybil.frames_unhandled,
               "victim frames " + std::to_string(w->frames) + " == frames sent " +
                   std::to_string(sent - sybil.frames_unhandled));
  result.Check(w->victim->RxBytesShed() == 0, "no received bytes shed");

  // Crash consistency: what the fsyncs made durable must pass fsck and
  // replay to a subset of the bans; a clean shutdown must keep all of them.
  const bsim::SimTime now = w->loop.WallNow();
  bsim::SimFs image;
  w->fs.CopyDurableImage(w->store_dir, image);
  const bsstore::FsckReport fsck = bsstore::RunFsck(image, w->store_dir, /*repair=*/true);
  result.Check(fsck.store_found && (fsck.healthy || fsck.repaired) && fsck.lost_commits == 0,
               "the fsynced image passes fsck: " + fsck.ToJson());
  bool opened = false;
  const std::set<bsproto::Endpoint> crash_bans = ReplayBans(image, w->store_dir, now, opened);
  result.Check(opened, "the fsynced image replays");
  for (const bsproto::Endpoint& ep : crash_bans) {
    result.Check(expected_bans.count(ep) == 1, "the fsynced image holds only caused bans");
  }
  w->victim->Shutdown();
  const std::set<bsproto::Endpoint> reopened =
      ReplayBans(bsstore::RealFs::Instance(), w->store_dir, now, opened);
  result.Check(opened && reopened == expected_bans,
               "a clean shutdown reopens to exactly the bans");

  result.attempted = sent;
  std::fprintf(stderr,
               "loopback_durable: seed %llu frames %llu bans %zu fsyncs %llu rtt samples %zu "
               "wall %.3f s\n",
               static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(e2e.frames), sybil.ids.size(),
               static_cast<unsigned long long>(e2e.fsyncs), e2e.honest_rtt_us.size(),
               e2e.measured_s);
  if (args.trace) {
    AddLayerMetrics(result, lc, w->profiler);
  } else {
    w.reset();
    TimeBuilds(12, build, setup_times);
    e2e.setup_s = Quantile(setup_times, 0.5);
    AddEndToEnd(result, e2e);
  }
  return result.Print();
}

}  // namespace perfbench
