#include "layers.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iterator>

#include "proto/codec.hpp"

namespace perfbench {

const char* ClassName(FrameClass c) {
  switch (c) {
    case FrameClass::kVersion: return "version";
    case FrameClass::kPing: return "ping";
    case FrameClass::kAddr: return "addr";
    case FrameClass::kBlockBadsum: return "block_badsum";
    case FrameClass::kBlock: return "block";
    case FrameClass::kTx: return "tx";
    case FrameClass::kInv: return "inv";
    case FrameClass::kHeaders: return "headers";
    case FrameClass::kUnknown: return "unknown";
    case FrameClass::kOther: return "other";
    case FrameClass::kCount: break;
  }
  return "?";
}

Probe& P() {
  static Probe probe;
  return probe;
}

void SpinNs(std::uint64_t ns) {
  const std::uint64_t until = NowNs() + ns;
  while (NowNs() < until) {
  }
}

Span::Span(Layer layer)
    : active_(P().timing || P().Slowed(static_cast<int>(layer))),
      layer_(static_cast<int>(layer)) {
  if (active_) P().stack.push_back({layer_, NowNs(), 0});
}

std::uint64_t Span::Stop() {
  if (!active_) return 0;
  active_ = false;
  Probe& p = P();
  if (p.Slowed(layer_)) SpinNs(NowNs() - p.stack.back().start);
  const Probe::Open open = p.stack.back();
  p.stack.pop_back();
  const std::uint64_t dur = NowNs() - open.start;
  LayerTime& t = p.layers[layer_];
  t.incl_ns += dur;
  t.self_ns += dur - std::min(dur, open.child);
  ++t.calls;
  if (!p.stack.empty()) p.stack.back().child += dur;
  return dur;
}

// ---------------------------------------------------------------------------
// TimedFs

bool TimedFs::Exists(const std::string& path) {
  Span s(Layer::kFs);
  return inner_.Exists(path);
}

bool TimedFs::ReadFile(const std::string& path, bsutil::ByteVec& out) {
  Span s(Layer::kFs);
  return inner_.ReadFile(path, out);
}

std::vector<std::string> TimedFs::ListDir(const std::string& dir) {
  Span s(Layer::kFs);
  return inner_.ListDir(dir);
}

bool TimedFs::MkDir(const std::string& dir) {
  Span s(Layer::kFs);
  return inner_.MkDir(dir);
}

int TimedFs::OpenWrite(const std::string& path, bool truncate) {
  std::size_t size = 0;
  if (truncate) {
    durable_[path] = 0;  // the truncation is a metadata op, durable at once
  } else {
    bsutil::ByteVec existing;
    if (inner_.ReadFile(path, existing)) size = existing.size();
  }
  Span s(Layer::kFs);
  const int fd = inner_.OpenWrite(path, truncate);
  if (fd >= 0) handles_[fd] = Handle{path, size};
  return fd;
}

bool TimedFs::Write(int fd, bsutil::ByteSpan data) {
  Span s(Layer::kFs);
  const bool ok = inner_.Write(fd, data);
  if (ok) {
    bytes_written += data.size();
    const auto it = handles_.find(fd);
    if (it != handles_.end()) it->second.size += data.size();
  }
  return ok;
}

bool TimedFs::Fsync(int fd) {
  Span s(Layer::kFs);
  ++fsyncs;
  const auto it = handles_.find(fd);
  if (it != handles_.end()) durable_[it->second.path] = it->second.size;
  return true;
}

void TimedFs::Close(int fd) {
  Span s(Layer::kFs);
  handles_.erase(fd);
  inner_.Close(fd);
}

bool TimedFs::Rename(const std::string& from, const std::string& to) {
  Span s(Layer::kFs);
  const bool ok = inner_.Rename(from, to);
  if (ok) {
    durable_[to] = durable_[from];
    durable_.erase(from);
    for (auto& [fd, h] : handles_) {
      if (h.path == from) h.path = to;
    }
    if (to.find("snap-") != std::string::npos) ++snapshots;
  }
  return ok;
}

bool TimedFs::Remove(const std::string& path) {
  Span s(Layer::kFs);
  durable_.erase(path);
  return inner_.Remove(path);
}

void TimedFs::CopyDurableImage(const std::string& dir, bsstore::StoreFs& out) {
  out.MkDir(dir);
  for (const std::string& name : inner_.ListDir(dir)) {
    const std::string path = bsstore::JoinPath(dir, name);
    bsutil::ByteVec data;
    if (!inner_.ReadFile(path, data)) continue;
    const auto it = durable_.find(path);
    data.resize(std::min(data.size(), it == durable_.end() ? 0 : it->second));
    const int fd = out.OpenWrite(path, /*truncate=*/true);
    if (fd < 0) continue;
    out.Write(fd, data);
    out.Fsync(fd);
    out.Close(fd);
  }
}

// ---------------------------------------------------------------------------
// TimedSocketApi

int TimedSocketApi::OpenStream() {
  Span s(layer_);
  const int fd = inner_.OpenStream();
  if (fd >= 0 && nodelay_) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  return fd;
}
int TimedSocketApi::Bind(int fd, const bsim::SockAddr& addr) {
  Span s(layer_);
  return inner_.Bind(fd, addr);
}
int TimedSocketApi::Listen(int fd, int backlog) {
  Span s(layer_);
  return inner_.Listen(fd, backlog);
}
int TimedSocketApi::Accept(int fd, bsim::SockAddr& peer) {
  Span s(layer_);
  return inner_.Accept(fd, peer);
}
int TimedSocketApi::Connect(int fd, const bsim::SockAddr& addr) {
  Span s(layer_);
  return inner_.Connect(fd, addr);
}
long TimedSocketApi::Send(int fd, const void* buf, std::size_t len) {
  Span s(layer_);
  ++send_calls;
  return inner_.Send(fd, buf, len);
}
long TimedSocketApi::Recv(int fd, void* buf, std::size_t len) {
  Span s(layer_);
  const long n = inner_.Recv(fd, buf, len);
  if (nodelay_) {
    // Quick ACK is not sticky: re-arm it after every read.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
  }
  ++recv_calls;
  if (n > 0) recv_bytes += static_cast<std::uint64_t>(n);
  return n;
}
int TimedSocketApi::SockError(int fd) {
  Span s(layer_);
  return inner_.SockError(fd);
}
int TimedSocketApi::LocalEndpoint(int fd, bsim::SockAddr& addr) {
  Span s(layer_);
  return inner_.LocalEndpoint(fd, addr);
}
int TimedSocketApi::CloseFd(int fd) {
  Span s(layer_);
  return inner_.CloseFd(fd);
}

// ---------------------------------------------------------------------------
// LayerConn / LayerTransport

LayerConn::LayerConn(LayerTransport& owner, bsnet::TransportConn& inner, bool outbound)
    : owner_(owner), inner_(inner) {
  // An accepted connection's on_connected is the substrate's own accept
  // trampoline, running right now: leave it alone.
  if (outbound) {
    inner_.on_connected = [this](bool ok) {
      if (on_connected) on_connected(ok);
    };
  }
  inner_.on_closed = [this]() {
    if (on_closed) on_closed();
  };
}

void LayerConn::SetDataSink(std::function<void(bsutil::ByteSpan)> sink) {
  sink_ = std::move(sink);
  if (sink_) {
    inner_.SetDataSink([this](bsutil::ByteSpan data) { OnBytes(data); });
  } else {
    inner_.SetDataSink(nullptr);
  }
}

void LayerConn::Send(bsutil::ByteSpan data) {
  if (inner_.Remote().ip == owner_.count_ip) ++owner_.frames_sent;
  Span s(Layer::kSend);
  inner_.Send(data);
}

bool LayerConn::Forward(bsutil::ByteSpan piece, bool completes_frame, bool first) {
  if (!sink_) return false;
  Probe& p = P();
  if (!first) ++p.extra_sink_calls;
  // Classify from the header before the node runs: a ban inside the call
  // may tear this connection down.
  int type = -1;
  if (completes_frame && header_.size() == bsproto::kHeaderSize) {
    char cmd[13] = {};
    std::memcpy(cmd, header_.data() + 4, 12);
    for (std::size_t t = 0; t < bsproto::kNumMsgTypes; ++t) {
      if (std::strcmp(cmd, bsproto::CommandName(static_cast<bsproto::MsgType>(t))) == 0) {
        type = static_cast<int>(t);
      }
    }
  }
  owner_.last_status_ = -1;
  const auto sink = sink_;  // the call may detach (and destroy) sink_
  Span span(Layer::kDeliver);
  sink(piece);
  const std::uint64_t ns = span.Stop();
  if (!completes_frame) return static_cast<bool>(sink_);

  using bsproto::DecodeStatus;
  using bsproto::MsgType;
  FrameClass cls = FrameClass::kOther;
  const int status = owner_.last_status_;
  if (status == static_cast<int>(DecodeStatus::kUnknownCommand)) {
    cls = FrameClass::kUnknown;
  } else if (type == static_cast<int>(MsgType::kBlock)) {
    cls = status == static_cast<int>(DecodeStatus::kBadChecksum) ? FrameClass::kBlockBadsum
                                                                  : FrameClass::kBlock;
  } else if (type == static_cast<int>(MsgType::kVersion)) {
    cls = FrameClass::kVersion;
  } else if (type == static_cast<int>(MsgType::kPing)) {
    cls = FrameClass::kPing;
  } else if (type == static_cast<int>(MsgType::kAddr)) {
    cls = FrameClass::kAddr;
  } else if (type == static_cast<int>(MsgType::kTx)) {
    cls = FrameClass::kTx;
  } else if (type == static_cast<int>(MsgType::kInv)) {
    cls = FrameClass::kInv;
  } else if (type == static_cast<int>(MsgType::kHeaders)) {
    cls = FrameClass::kHeaders;
  }
  if (status >= 0) {  // the node really handled a frame in this call
    ClassCost& cost = p.classes[static_cast<int>(cls)];
    ++cost.frames;
    cost.ns += ns;
    if (cls == FrameClass::kBlockBadsum) {
      ClassCost& sized = p.badsum_by_size[static_cast<std::uint32_t>(body_length_)];
      ++sized.frames;
      sized.ns += ns;
    }
  }
  return static_cast<bool>(sink_);
}

void LayerConn::OnBytes(bsutil::ByteSpan data) {
  if (!owner_.split_) {
    Forward(data, /*completes_frame=*/false, /*first=*/true);
    return;
  }
  // Cut the read at frame boundaries: every piece that ends a frame is its
  // own call, and a trailing partial frame is handed over as the substrate
  // delivered it, so the node's reassembly sees the same partial reads.
  std::size_t pos = 0;
  std::size_t piece_start = 0;
  bool first = true;
  while (pos < data.size()) {
    if (header_.size() < bsproto::kHeaderSize) {
      const std::size_t take =
          std::min(bsproto::kHeaderSize - header_.size(), data.size() - pos);
      header_.insert(header_.end(), data.begin() + static_cast<std::ptrdiff_t>(pos),
                     data.begin() + static_cast<std::ptrdiff_t>(pos + take));
      pos += take;
      if (header_.size() < bsproto::kHeaderSize) break;
      body_left_ = static_cast<std::size_t>(header_[16]) |
                   static_cast<std::size_t>(header_[17]) << 8 |
                   static_cast<std::size_t>(header_[18]) << 16 |
                   static_cast<std::size_t>(header_[19]) << 24;
      body_length_ = body_left_;
    }
    const std::size_t take = std::min(body_left_, data.size() - pos);
    pos += take;
    body_left_ -= take;
    if (body_left_ == 0) {
      const bool alive =
          Forward(data.subspan(piece_start, pos - piece_start), true, first);
      header_.clear();
      first = false;
      piece_start = pos;
      if (!alive) return;
    }
  }
  if (piece_start < data.size()) {
    Forward(data.subspan(piece_start, data.size() - piece_start), false, first);
  }
}

void LayerTransport::Attach(bsnet::Node& node) {
  auto prev = node.on_frame;
  node.on_frame = [this, prev](std::size_t bytes, bsproto::DecodeStatus status) {
    last_status_ = static_cast<int>(status);
    if (prev) prev(bytes, status);
  };
}

bsnet::TransportConn& LayerTransport::Wrap(bsnet::TransportConn& conn, bool outbound) {
  conns_.push_back(std::make_unique<LayerConn>(*this, conn, outbound));
  return *conns_.back();
}

void LayerTransport::Listen(std::uint16_t port, AcceptCallback on_accept) {
  inner_.Listen(port, [this, on_accept](bsnet::TransportConn& conn) {
    on_accept(Wrap(conn, /*outbound=*/false));
  });
}

bsnet::TransportConn* LayerTransport::Connect(const bsproto::Endpoint& remote) {
  bsnet::TransportConn* conn = inner_.Connect(remote);
  return conn == nullptr ? nullptr : &Wrap(*conn, /*outbound=*/true);
}

// ---------------------------------------------------------------------------
// Reporting

void Result::Add(const std::string& name, double value, const char* unit) {
  metrics_.push_back({name, {value, unit}});
}

void Result::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

int Result::Print() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", vu.first);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" + vu.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return correct_ ? 0 : 1;
}

namespace {

double Div(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

}  // namespace

void AddLayerMetrics(Result& out, const LayerCounts& c,
                     const bsobs::HotpathProfiler& profiler) {
  const Probe& p = P();
  const double frames = static_cast<double>(c.frames);
  const double kframes = frames / 1000.0;
  const bsobs::StageStats decode = profiler.Stats(bsobs::HotStage::kCodecDecode);
  const bsobs::StageStats tracker = profiler.Stats(bsobs::HotStage::kTrackerUpdate);
  const bsobs::StageStats select = profiler.Stats(bsobs::HotStage::kAddrmanSelect);

  // The simulator's layers do no work on the loopback workload, whose loop
  // is reported under core.transport instead.
  const bool sim = c.segments > 0;
  out.Add("sim.scheduler.self_ns_per_event",
          sim ? Div(p.Of(Layer::kStep).self_ns, c.events) : 0.0, "ns");
  out.Add("sim.scheduler.events_per_frame", sim ? Div(c.events, frames) : 0.0, "count");
  out.Add("sim.scheduler.peak_pending", sim ? static_cast<double>(c.peak_pending) : 0.0,
          "count");
  out.Add("sim.tcp.segments_per_frame", Div(c.segments, frames), "count");

  out.Add("proto.decode.ns_per_call", Div(decode.total_ns, decode.count), "ns");
  out.Add("proto.decode.ns_per_kib", Div(decode.total_ns, c.frame_bytes / 1024.0), "ns");
  // Attempts the untraced node makes: the splitter's extra sink calls each
  // add exactly one terminal (need-more-data) attempt.
  out.Add("proto.decode.calls_per_frame",
          Div(static_cast<double>(decode.count) - static_cast<double>(p.extra_sink_calls),
              frames),
          "count");

  for (FrameClass cls : {FrameClass::kVersion, FrameClass::kPing, FrameClass::kAddr,
                         FrameClass::kBlockBadsum, FrameClass::kBlock, FrameClass::kTx,
                         FrameClass::kInv, FrameClass::kHeaders, FrameClass::kUnknown}) {
    const ClassCost& cost = p.classes[static_cast<int>(cls)];
    out.Add(std::string("core.node.handle_ns.") + ClassName(cls), Div(cost.ns, cost.frames),
            "ns");
  }
  const double deliver_self = static_cast<double>(p.Of(Layer::kDeliver).self_ns) -
                              static_cast<double>(decode.total_ns) -
                              static_cast<double>(tracker.total_ns);
  out.Add("core.node.self_ns_per_frame", Div(std::max(0.0, deliver_self), frames), "ns");
  out.Add("core.node.send_ns_per_frame", Div(p.Of(Layer::kSend).incl_ns, frames), "ns");

  out.Add("core.misbehavior.ns_per_update", Div(tracker.total_ns, tracker.count), "ns");
  out.Add("core.misbehavior.updates_per_ban", Div(c.score_updates, c.bans), "count");
  out.Add("core.addrman.select_ns", Div(select.total_ns, select.count), "ns");
  out.Add("core.addrman.evictions_per_kframe", Div(c.addr_evictions, kframes), "count");
  out.Add("core.ratelimit.shed_per_kframe", Div(c.shed_frames, kframes), "count");

  const TimedFs* fs = c.fs;
  out.Add("store.snapshots_per_kframe", fs ? Div(fs->snapshots, kframes) : 0.0, "count");
  out.Add("store.bytes_per_kframe", fs ? Div(fs->bytes_written, kframes) : 0.0, "B");
  out.Add("store.fs_ns_per_kframe", Div(p.Of(Layer::kFs).incl_ns, kframes), "ns");
  out.Add("store.replay_s", c.replay_s, "s");

  const TimedSocketApi* api = c.victim_api;
  out.Add("core.transport.recv_calls_per_frame", api ? Div(api->recv_calls, frames) : 0.0,
          "count");
  out.Add("core.transport.recv_bytes_per_call",
          api ? Div(api->recv_bytes, api->recv_calls) : 0.0, "B");
  out.Add("core.transport.syscall_ns_per_frame", Div(p.Of(Layer::kSys).incl_ns, frames), "ns");
  out.Add("core.transport.send_calls_per_frame", api ? Div(api->send_calls, frames) : 0.0,
          "count");
  out.Add("core.transport.loop_self_ns_per_frame",
          api != nullptr && !sim ? Div(p.Of(Layer::kStep).self_ns, frames) : 0.0, "ns");

  out.Add("detect.monitor_ns_per_msg", Div(p.Of(Layer::kMonitor).incl_ns, c.monitor_msgs),
          "ns");
  out.Add("detect.tick_ns", Div(p.Of(Layer::kDetect).incl_ns, c.detect_ticks), "ns");

  // Where the traced wall time went: each layer's self time.
  static const char* const kLayerNames[] = {"step", "deliver", "send",   "fs",     "sys",
                                            "client", "client_sys", "monitor", "detect"};
  static_assert(std::size(kLayerNames) == static_cast<std::size_t>(Layer::kCount));
  double traced_ns = 0.0;
  for (const LayerTime& t : p.layers) traced_ns += static_cast<double>(t.self_ns);
  for (int i = 0; i < static_cast<int>(Layer::kCount); ++i) {
    std::fprintf(stderr, "layer %-10s self %8.3f s %5.1f%%\n", kLayerNames[i],
                 static_cast<double>(p.layers[i].self_ns) / 1e9,
                 100.0 * Div(static_cast<double>(p.layers[i].self_ns), traced_ns));
  }

  // Table II, measured: per-type cost of one handled frame.
  std::fprintf(stderr, "%-14s %10s %14s\n", "frame", "count", "ns/frame");
  for (int i = 0; i < static_cast<int>(FrameClass::kCount); ++i) {
    const ClassCost& cost = p.classes[i];
    if (cost.frames == 0) continue;
    std::fprintf(stderr, "%-14s %10llu %14.0f\n", ClassName(static_cast<FrameClass>(i)),
                 static_cast<unsigned long long>(cost.frames), Div(cost.ns, cost.frames));
  }
  double prev = 0.0;
  for (const auto& [size, cost] : p.badsum_by_size) {
    const double ns = Div(cost.ns, cost.frames);
    std::fprintf(stderr, "block_badsum %7u B %7llu %14.0f\n", size,
                 static_cast<unsigned long long>(cost.frames), ns);
    // Below a few kB the payload hash no longer dominates a frame's cost.
    if (size >= 4096) {
      out.Check(ns > prev, "bad-checksum BLOCK cost rises with payload size");
      prev = ns;
    }
  }
  const ClassCost& block = p.classes[static_cast<int>(FrameClass::kBlock)];
  const ClassCost& ping = p.classes[static_cast<int>(FrameClass::kPing)];
  if (block.frames > 0 && ping.frames > 0) {
    out.Check(Div(block.ns, block.frames) > Div(ping.ns, ping.frames),
              "a valid BLOCK costs more than a PING");
  }
}

WorkDir::WorkDir(const std::string& name)
    : path_(".bench_work/" + name + "-" + std::to_string(::getpid())) {
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

WorkDir::~WorkDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
  std::filesystem::remove(".bench_work", ec);  // only when no other run uses it
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
