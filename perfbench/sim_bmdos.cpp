// sim_bmdos: the paper's BM-DoS on one stock 0.20.0 victim in the simulator,
// with the durable store on (as `bsnetd --store-dir` runs it).
//
// Set-up: the victim dials eight honest peers that send the calibrated
// Mainnet mix, and one of them mines every 30 simulated seconds; the §V
// Monitor records an honest prefix and the StatEngine trains on it. Measured
// phase (a fixed simulated span):
//   - an honest client PINGs the victim in a closed loop;
//   - a BM-DoS flood sends bursts of PINGs, an unknown command and a
//     bad-checksum BLOCK (hundreds of bytes to hundreds of KiB);
//   - a serial Sybil sends duplicate VERSIONs until each identifier is
//     banned;
//   - the engine judges the minute in progress once per simulated second;
//   - a hardened guard node (per-peer rate limiter, CPU governor, bucketed
//     address table, feelers, its own store) takes two open-loop copies of
//     the flood and sheds part of them, while it keeps trying to fill its
//     outbound slots from a table of addresses nobody answers at.
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>

#include "attack/traffic.hpp"
#include "core/sim_transport.hpp"
#include "detect/engine.hpp"
#include "detect/monitor.hpp"
#include "sim_actors.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kVictimIp = 0x0a000001;
constexpr std::uint32_t kHonestBase = 0x0a000100;
constexpr std::uint32_t kPingerIp = 0x0a0000f0;
constexpr std::uint32_t kFloodIp = 0x0a0000f1;
constexpr std::uint32_t kSybilIp = 0x0a0000f2;
constexpr std::uint32_t kGuardIp = 0x0a000002;
constexpr std::uint32_t kGuardFloodIp = 0x0a0000f3;  // and the next one
constexpr int kGuardFloods = 2;
/// Each guard flood sends a burst every this long (about 1.8 MB per
/// simulated second). The per-peer byte bucket holds less than the largest
/// bad-checksum BLOCK, so the rate limiter sheds every one of those; what it
/// passes from both floods exceeds the governor's model-cycle budget.
constexpr bsim::SimTime kGuardFloodGap = 40 * bsim::kMillisecond;
constexpr double kGuardBytesPerSec = 512.0 * 1024;
constexpr double kGuardBytesBurst = 256.0 * 1024;
constexpr double kGuardGovernorCycles = 1.0e7;
/// Outbound slots the guard tries to fill, and the unanswered addresses in
/// its table (10.1.0.0/16, where no node lives).
constexpr int kGuardOutbound = 4;
constexpr std::uint32_t kGuardDeadAddrs = 1024;
constexpr std::uint32_t kDeadBase = 0x0a010000;
constexpr int kHonestPeers = 8;
constexpr int kTrainMinutes = 6;
constexpr bsim::SimTime kMineInterval = 30 * bsim::kSecond;
/// Simulated seconds measured per second of --seconds (about one wall
/// second each on a 4-core x86 host).
constexpr double kSimSecondsPerRunSecond = 3.5;
const std::vector<std::size_t> kBogusSizes = {300, 1200, 5000, 20000, 80000, 320000};

struct World {
  World(const Args& a, const std::string& store_root)
      : args(a), net(sched), fs(bsstore::RealFs::Instance()) {
    std::filesystem::remove_all(store_root);
    bsnet::NodeConfig vc;
    vc.rng_seed = args.seed;
    vc.target_outbound = kHonestPeers;
    vc.enable_durable_store = true;
    vc.enable_anchors = true;
    vc.store_fs = &fs;
    vc.store_dir = store_root + "/victim";
    vc.profiler = args.trace ? &profiler : nullptr;
    victim_inner = std::make_unique<bsnet::SimTransport>(sched, net, kVictimIp);
    bsnet::Transport* transport = victim_inner.get();
    if (args.trace || !args.slow.empty()) {
      victim_layer = std::make_unique<LayerTransport>(*victim_inner, args.trace);
      transport = victim_layer.get();
    }
    victim = std::make_unique<bsnet::Node>(sched, *transport, vc);

    bsnet::NodeConfig gc;
    gc.rng_seed = args.seed ^ 0x6a4d;
    gc.target_outbound = kGuardOutbound;
    gc.enable_addrman_bucketing = true;
    gc.enable_feelers = true;
    gc.enable_rate_limit = true;
    gc.rx_bytes_per_sec = kGuardBytesPerSec;
    gc.rx_bytes_burst = kGuardBytesBurst;
    gc.governor_cycles_per_sec = kGuardGovernorCycles;
    gc.enable_durable_store = true;
    gc.store_fs = &fs;
    gc.store_dir = store_root + "/guard";
    gc.profiler = vc.profiler;
    guard_inner = std::make_unique<bsnet::SimTransport>(sched, net, kGuardIp);
    bsnet::Transport* guard_transport = guard_inner.get();
    if (args.trace || !args.slow.empty()) {
      guard_layer = std::make_unique<LayerTransport>(*guard_inner, args.trace);
      guard_transport = guard_layer.get();
    }
    guard = std::make_unique<bsnet::Node>(sched, *guard_transport, gc);
    for (std::uint32_t i = 0; i < kGuardDeadAddrs; ++i) {
      guard->AddKnownAddress({kDeadBase + i * 61, 8333});  // spread over the /16
    }

    for (int i = 0; i < kHonestPeers; ++i) {
      bsnet::NodeConfig pc;
      pc.rng_seed = args.seed * 1000 + static_cast<std::uint64_t>(i);
      pc.target_outbound = 0;
      auto inner = std::make_unique<bsnet::SimTransport>(sched, net, kHonestBase + i);
      auto layer = std::make_unique<LayerTransport>(*inner, false);
      layer->count_ip = kVictimIp;
      auto peer = std::make_unique<bsnet::Node>(sched, *layer, pc);
      peer->Start();
      victim->AddKnownAddress({kHonestBase + static_cast<std::uint32_t>(i), 8333});
      honest.push_back(peer.get());
      honest_inner.push_back(std::move(inner));
      honest_layers.push_back(std::move(layer));
      honest_nodes.push_back(std::move(peer));
    }
    victim->on_frame = [this](std::size_t bytes, bsproto::DecodeStatus) {
      ++frames;
      frame_bytes += bytes;
    };
    victim->on_misbehavior = [this](const bsnet::Peer& peer, bsnet::Misbehavior,
                                    const bsnet::MisbehaviorOutcome&) {
      scored_ips.insert(peer.remote.ip);
    };
    victim->on_peer_banned = [this](const bsnet::Peer& peer) {
      ban_ns[peer.remote] = NowNs();
    };
    if (victim_layer) victim_layer->Attach(*victim);
    victim->Start();
    guard->on_frame = [this](std::size_t bytes, bsproto::DecodeStatus) {
      ++frames;
      ++guard_frames;
      frame_bytes += bytes;
    };
    guard->on_misbehavior = [this](const bsnet::Peer& peer, bsnet::Misbehavior,
                                   const bsnet::MisbehaviorOutcome&) {
      scored_ips.insert(peer.remote.ip);
    };
    if (guard_layer) guard_layer->Attach(*guard);
    guard->Start();
    sched.RunUntil(2 * bsim::kSecond);

    // Honest prefix: the §V engine learns the victim's normal traffic.
    monitor = std::make_unique<bsdetect::Monitor>(*victim);
    bsattack::TrafficConfig tc;
    tc.seed = args.seed;
    // Blocks come from one miner on a fixed schedule (MineTick), not from
    // the mix's Poisson draws, so every seed mines the same number.
    std::erase_if(tc.mix, [](const bsattack::TrafficMixEntry& e) {
      return e.kind == bsattack::TrafficMixEntry::Kind::kMineBlock;
    });
    traffic = std::make_unique<bsattack::MainnetTrafficGenerator>(sched, honest, *victim, tc);
    traffic->Start();
    sched.After(kMineInterval, [this]() { MineTick(); });
    sched.RunUntil(sched.Now() + kTrainMinutes * bsim::kMinute);
    training = monitor->AllWindows(1);
    trained = engine.Train(training);
    WrapMonitorHooks();

    pinger_node = std::make_unique<bsattack::AttackerNode>(sched, net, kPingerIp,
                                                           vc.chain.magic);
    flood_node = std::make_unique<bsattack::AttackerNode>(sched, net, kFloodIp,
                                                          vc.chain.magic);
    sybil_node = std::make_unique<bsattack::AttackerNode>(sched, net, kSybilIp,
                                                          vc.chain.magic);
    for (int i = 0; i < kGuardFloods; ++i) {
      guard_flood_nodes.push_back(std::make_unique<bsattack::AttackerNode>(
          sched, net, kGuardFloodIp + static_cast<std::uint32_t>(i), vc.chain.magic));
      guard_floods.push_back(std::make_unique<SimFlood>(
          *guard_flood_nodes.back(), vc.chain, kBogusSizes, 16, kGuardFloodGap,
          args.seed ^ (4 + static_cast<std::uint64_t>(i)), /*open_loop=*/true));
    }
    pinger = std::make_unique<SimPinger>(*pinger_node, 20 * bsim::kMillisecond, args.seed ^ 1);
    flood = std::make_unique<SimFlood>(*flood_node, vc.chain, kBogusSizes, 16,
                                       2 * bsim::kMillisecond, args.seed ^ 2);
    sybil = std::make_unique<SimSybil>(*sybil_node, 1 * bsim::kMillisecond,
                                       50 * bsim::kMillisecond, args.seed ^ 3);
  }

  void MineTick() {
    if (!mining) return;
    if (honest[0]->MineAndRelay()) ++mined;
    sched.After(kMineInterval, [this]() { MineTick(); });
  }

  /// Times the Monitor's hooks (it installed itself on the node).
  void WrapMonitorHooks() {
    auto on_message = victim->on_message;
    victim->on_message = [on_message](const bsnet::Peer& p, bsproto::MsgType t,
                                      std::size_t n) {
      Span s(Layer::kMonitor);
      on_message(p, t, n);
    };
    auto on_frame = victim->on_frame;
    victim->on_frame = [on_frame](std::size_t n, bsproto::DecodeStatus st) {
      Span s(Layer::kMonitor);
      on_frame(n, st);
    };
  }

  void DetectTick() {
    {
      Span s(Layer::kDetect);
      // Window() aggregates whole minutes before the one it is given: ask
      // for the minute in progress, which holds the flood.
      const bsdetect::DetectionResult r =
          engine.Detect(monitor->Window(sched.Now() + bsim::kMinute, 1));
      ++detect_ticks;
      if (!r.anomalous || !r.bmdos_suspected) ++unflagged_ticks;
    }
    if (measuring) sched.After(bsim::kSecond, [this]() { DetectTick(); });
  }

  Args args;
  bsim::Scheduler sched;
  bsim::Network net;
  TimedFs fs;
  bsobs::HotpathProfiler profiler;
  std::unique_ptr<bsnet::SimTransport> victim_inner;
  std::unique_ptr<LayerTransport> victim_layer;
  std::unique_ptr<bsnet::Node> victim;
  std::unique_ptr<bsnet::SimTransport> guard_inner;
  std::unique_ptr<LayerTransport> guard_layer;
  std::unique_ptr<bsnet::Node> guard;
  std::vector<std::unique_ptr<bsnet::SimTransport>> honest_inner;
  std::vector<std::unique_ptr<LayerTransport>> honest_layers;
  std::vector<std::unique_ptr<bsnet::Node>> honest_nodes;
  std::vector<bsnet::Node*> honest;
  std::unique_ptr<bsdetect::Monitor> monitor;
  std::unique_ptr<bsattack::MainnetTrafficGenerator> traffic;
  bsdetect::StatEngine engine;
  std::vector<bsdetect::FeatureWindow> training;
  bool trained = false;
  std::unique_ptr<bsattack::AttackerNode> pinger_node, flood_node, sybil_node;
  std::unique_ptr<SimPinger> pinger;
  std::unique_ptr<SimFlood> flood;
  std::unique_ptr<SimSybil> sybil;
  std::vector<std::unique_ptr<bsattack::AttackerNode>> guard_flood_nodes;
  std::vector<std::unique_ptr<SimFlood>> guard_floods;

  bool mining = true;
  int mined = 0;
  std::uint64_t frames = 0;  // victim and guard
  std::uint64_t guard_frames = 0;
  std::uint64_t frame_bytes = 0;
  std::set<std::uint32_t> scored_ips;
  std::map<bsproto::Endpoint, std::uint64_t> ban_ns;
  bool measuring = false;
  std::uint64_t detect_ticks = 0;
  std::uint64_t unflagged_ticks = 0;
};

}  // namespace

int RunSimBmdos(const Args& args) {
  Result result;
  EndToEnd e2e;
  const WorkDir work("sim_bmdos");
  // A set-up takes about half a second: three before the measured phase and
  // two after it.
  const std::function<std::unique_ptr<World>()> build = [&]() {
    return std::make_unique<World>(args, work.Path());
  };
  std::vector<double> setup_times;
  std::unique_ptr<World> w = TimeBuilds(3, build, setup_times);
  result.Check(w->trained, "the detection engine trained on the honest prefix");

  // ---- Measured phase ----
  bsim::Scheduler& sched = w->sched;
  const std::uint64_t frames0 = w->frames;
  const std::uint64_t bytes0 = w->frame_bytes;
  const std::uint64_t events0 = sched.ExecutedEvents();
  const std::uint64_t segments0 = w->net.SegmentsSent();
  const std::uint64_t bans0 = w->victim->PeersBanned();
  const std::uint64_t updates0 = CounterValue(*w->victim, "bs_ban_score_events_total");
  const std::uint64_t monitor0 = w->monitor->TotalMessages();
  const std::uint64_t shed0 = w->guard->RateLimitedFrames();
  w->fs.ResetCounts();
  w->profiler.Reset();
  P().Reset();

  const bsproto::Endpoint target{kVictimIp, 8333};
  w->measuring = true;
  w->pinger->Start(target);
  w->flood->Start(target);
  w->sybil->Start(target);
  for (const auto& gf : w->guard_floods) gf->Start({kGuardIp, 8333});
  sched.After(bsim::kSecond, [&]() { w->DetectTick(); });
  const std::uint64_t start_ns = NowNs();
  const bsim::SimTime end =
      sched.Now() + bsim::FromSeconds(kSimSecondsPerRunSecond * args.seconds);
  for (bsim::SimTime next = sched.NextEventTime(); next >= 0 && next <= end;
       next = sched.NextEventTime()) {
    Span s(Layer::kStep);
    sched.Step();
  }
  e2e.measured_s = static_cast<double>(NowNs() - start_ns) / 1e9;

  e2e.frames = w->frames - frames0;
  e2e.fsyncs = w->fs.fsyncs;
  e2e.honest_rtt_us = w->pinger->rtt_us;
  for (const SimSybil::Identifier& id : w->sybil->ids) {
    const auto it = w->ban_ns.find(id.endpoint);
    if (id.closed && it != w->ban_ns.end()) {
      e2e.time_to_ban_ms.push_back(static_cast<double>(it->second - id.first_dup_ns) / 1e6);
    }
  }
  LayerCounts lc;
  lc.frames = e2e.frames;
  lc.frame_bytes = w->frame_bytes - bytes0;
  lc.events = sched.ExecutedEvents() - events0;
  lc.peak_pending = sched.PeakPendingEvents();
  lc.segments = w->net.SegmentsSent() - segments0;
  lc.bans = w->victim->PeersBanned() - bans0;
  lc.score_updates = CounterValue(*w->victim, "bs_ban_score_events_total") - updates0;
  // RateLimitedFrames counts every shed frame, the governor's included.
  lc.shed_frames = w->guard->RateLimitedFrames() - shed0;
  lc.monitor_msgs = w->monitor->TotalMessages() - monitor0;
  lc.detect_ticks = w->detect_ticks;
  lc.fs = &w->fs;

  // ---- Drain: stop every sender and let in-flight frames land ----
  w->measuring = false;
  w->pinger->running = false;
  w->flood->running = false;
  w->sybil->running = false;
  for (const auto& gf : w->guard_floods) gf->running = false;
  w->traffic->Stop();
  w->mining = false;
  sched.RunUntil(sched.Now() + 2 * bsim::kSecond);

  // ---- Correctness, computed apart from the program ----
  const SimSybil& sybil = *w->sybil;
  std::set<bsproto::Endpoint> sybil_ids;
  std::uint64_t banned_ids = 0;
  for (const SimSybil::Identifier& id : sybil.ids) {
    sybil_ids.insert(id.endpoint);
    if (id.closed) {
      ++banned_ids;
      result.Check(id.duplicates == kDuplicatesToBan,
                   "Sybil identifier banned after " + std::to_string(id.duplicates) +
                       " duplicate VERSIONs, expected " +
                       std::to_string(kDuplicatesToBan));
    } else {
      result.Check(id.duplicates < kDuplicatesToBan, "live Sybil identifier under threshold");
    }
  }
  result.Check(banned_ids > 0, "the serial Sybil got identifiers banned");
  result.Check(banned_ids == w->victim->PeersBanned(), "victim bans == banned Sybil identifiers");
  for (const bsproto::Endpoint& ep : w->victim->Bans().Snapshot()) {
    result.Check(sybil_ids.count(ep) == 1, "every ban is a Sybil identifier");
  }
  for (std::uint32_t ip : w->scored_ips) {
    result.Check(ip == kSybilIp, "no honest peer or flood session is ever scored");
  }
  const bsnet::Peer* flood_peer = w->victim->FindPeerByRemote(w->flood->session->local);
  result.Check(!w->flood->session->closed && flood_peer != nullptr,
               "the flood session ends connected");
  result.Check(flood_peer != nullptr && w->victim->Tracker().Score(flood_peer->id) == 0,
               "the flood session ends with score 0");
  result.Check(w->pinger->ledger.Exact() && w->flood->ledger.Exact() && sybil.ledger.Exact(),
               "every PONG echoes its PING's nonce");

  // The guard: every frame of its floods arrived, the rate limiter and the
  // governor both shed some, and every PONG it sent echoes a PING in order
  // (a shed PING gets none).
  std::uint64_t guard_sent = 0;
  for (const auto& gf : w->guard_floods) {
    guard_sent += gf->frames_sent;
    result.Check(gf->ledger.mismatches == 0,
                 "the guard's PONGs echo its PINGs in order, the shed ones excepted");
    const bsnet::Peer* peer = w->guard->FindPeerByRemote(gf->session->local);
    result.Check(!gf->session->closed && peer != nullptr &&
                     w->guard->Tracker().Score(peer->id) == 0,
                 "each guard flood session ends connected with score 0");
  }
  result.Check(w->guard_frames == guard_sent,
               "guard frames " + std::to_string(w->guard_frames) + " == frames sent " +
                   std::to_string(guard_sent));
  result.Check(w->guard->RateLimitedFrames() > w->guard->GovernorShedFrames() &&
                   w->guard->GovernorShedFrames() > 0,
               "the guard's rate limiter and governor both shed flood frames");
  result.Check(w->guard->PeersBanned() == 0 && w->guard->RxBytesShed() == 0,
               "the guard bans nothing and sheds no received bytes");
  std::uint64_t honest_sent = 0;
  for (const auto& layer : w->honest_layers) honest_sent += layer->frames_sent;
  const std::uint64_t client_sent =
      w->pinger->frames_sent + w->flood->frames_sent + sybil.frames_sent;
  result.Check(w->frames - w->guard_frames == honest_sent + client_sent - sybil.frames_unhandled,
               "victim frames " + std::to_string(w->frames - w->guard_frames) + " == frames sent " +
                   std::to_string(honest_sent + client_sent - sybil.frames_unhandled));
  result.Check(w->victim->RxBytesShed() == 0, "no received bytes shed");
  result.Check(w->victim->Chain().TipHeight() == w->mined &&
                   w->victim->Chain().TipHash() == w->honest[0]->Chain().TipHash(),
               "the victim follows the miner's chain");
  result.Check(w->detect_ticks > 0 && w->unflagged_ticks == 0,
               "the engine flags every flood window");
  for (const bsdetect::FeatureWindow& win : w->training) {
    result.Check(!w->engine.Detect(win).anomalous, "no honest-only window is flagged");
  }

  result.attempted = client_sent + guard_sent;
  std::fprintf(stderr,
               "sim_bmdos: seed %llu frames %llu events %llu bans %llu fsyncs %llu "
               "guard frames %llu shed %llu (governor %llu) rtt samples %zu wall %.3f s\n",
               static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(e2e.frames),
               static_cast<unsigned long long>(lc.events),
               static_cast<unsigned long long>(lc.bans),
               static_cast<unsigned long long>(e2e.fsyncs),
               static_cast<unsigned long long>(w->guard_frames),
               static_cast<unsigned long long>(w->guard->RateLimitedFrames()),
               static_cast<unsigned long long>(w->guard->GovernorShedFrames()),
               e2e.honest_rtt_us.size(), e2e.measured_s);
  if (args.trace) {
    AddLayerMetrics(result, lc, w->profiler);
  } else {
    w.reset();
    TimeBuilds(2, build, setup_times);
    e2e.setup_s = Quantile(setup_times, 0.5);
    AddEndToEnd(result, e2e);
  }
  return result.Print();
}

}  // namespace perfbench
