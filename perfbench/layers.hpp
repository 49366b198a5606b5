// Outside-in instrumentation for the benchmark: pass-throughs of the
// program's injectable seams (StoreFs, SocketApi, Transport) and a span stack
// that splits wall time between them. Nothing here reaches into src/; every
// probe sits on a seam the program already exposes.
//
// Timing is on only in a traced run (--trace 1) or for the one layer a
// sensitivity run slows down (--slow <layer>); otherwise a span is a branch
// and the wrappers only count.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/node.hpp"
#include "core/transport.hpp"
#include "obs/profiler.hpp"
#include "sim/faultsock.hpp"
#include "store/fs.hpp"

namespace perfbench {

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Layers the span stack separates. A span's self time is its duration minus
/// the spans nested inside it.
enum class Layer : int {
  kStep = 0,  // Scheduler::Step / EventLoop::PumpOnce, as the benchmark calls it
  kDeliver,   // the Node's data sink, entered through the Transport pass-through
  kSend,      // TransportConn::Send called by the Node
  kFs,        // StoreFs calls
  kSys,       // the victim's socket syscalls (SocketApi)
  kClient,    // the benchmark's own loopback clients' handlers
  kClientSys, // the clients' socket syscalls (SocketApi)
  kMonitor,   // §V Monitor hooks on the node
  kDetect,    // StatEngine::Detect
  kCount,
};

/// Frame classes of the Table II-shaped cost split.
enum class FrameClass : int {
  kVersion = 0,
  kPing,
  kAddr,
  kBlockBadsum,
  kBlock,
  kTx,
  kInv,
  kHeaders,
  kUnknown,
  kOther,
  kCount,
};
const char* ClassName(FrameClass c);

struct LayerTime {
  std::uint64_t incl_ns = 0;
  std::uint64_t self_ns = 0;
  std::uint64_t calls = 0;
};

struct ClassCost {
  std::uint64_t frames = 0;
  std::uint64_t ns = 0;
};

/// Process-wide measurement state (each workload is one single-threaded
/// process).
struct Probe {
  bool timing = false;        // --trace 1
  std::uint32_t slow = 0;     // bit per Layer doubled by --slow
  bool Slowed(int layer) const { return (slow >> layer) & 1u; }
  std::array<LayerTime, static_cast<int>(Layer::kCount)> layers{};
  std::array<ClassCost, static_cast<int>(FrameClass::kCount)> classes{};
  /// Bad-checksum BLOCK cost by payload length.
  std::map<std::uint32_t, ClassCost> badsum_by_size;
  /// Sink calls the frame-splitting pass-through added on top of the ones
  /// the substrate made: each adds exactly one terminal decode attempt.
  std::uint64_t extra_sink_calls = 0;

  struct Open {
    int layer;
    std::uint64_t start;
    std::uint64_t child;
  };
  std::vector<Open> stack;

  void Reset() {
    layers = {};
    classes = {};
    badsum_by_size.clear();
    extra_sink_calls = 0;
  }
  const LayerTime& Of(Layer l) const { return layers[static_cast<int>(l)]; }
};
Probe& P();

/// Busy-waits `ns` (the sensitivity check's doubling of a layer's time).
void SpinNs(std::uint64_t ns);

/// RAII span. Inactive (one branch) unless timing is on or `layer` is a
/// slowed one; a slowed layer spins for as long as its body took, so the
/// layer's cost doubles and its callers see it.
class Span {
 public:
  explicit Span(Layer layer);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { Stop(); }
  /// Closes the span now; returns its duration (0 when inactive).
  std::uint64_t Stop();

 private:
  bool active_;
  int layer_;
};

// ---------------------------------------------------------------------------

/// StoreFs pass-through: counts every mutating call, times every call, and
/// records how many bytes of each file an fsync made durable — enough to
/// rebuild the image a power cut would leave behind.
///
/// An fsync is counted and recorded but not performed: the store then costs
/// what it costs on tmpfs, where fsync does no I/O, while a disk flush (whose
/// time varies several-fold run to run) stays out of the timings.
class TimedFs : public bsstore::StoreFs {
 public:
  explicit TimedFs(bsstore::StoreFs& inner) : inner_(inner) {}

  bool Exists(const std::string& path) override;
  bool ReadFile(const std::string& path, bsutil::ByteVec& out) override;
  std::vector<std::string> ListDir(const std::string& dir) override;
  bool MkDir(const std::string& dir) override;
  int OpenWrite(const std::string& path, bool truncate) override;
  bool Write(int fd, bsutil::ByteSpan data) override;
  bool Fsync(int fd) override;
  void Close(int fd) override;
  bool Rename(const std::string& from, const std::string& to) override;
  bool Remove(const std::string& path) override;

  std::uint64_t fsyncs = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t snapshots = 0;  // snapshot files renamed into place

  void ResetCounts() { fsyncs = bytes_written = snapshots = 0; }
  /// Copies every file under `dir`, cut to its fsynced length, into `out`
  /// (what survives a power cut right now).
  void CopyDurableImage(const std::string& dir, bsstore::StoreFs& out);

 private:
  struct Handle {
    std::string path;
    std::size_t size = 0;
  };
  bsstore::StoreFs& inner_;
  std::map<int, Handle> handles_;
  std::map<std::string, std::size_t> durable_;  // path -> fsynced bytes
};

/// SocketApi pass-through: counts and times the syscalls of one side.
/// `nodelay` sets TCP_NODELAY on every socket it opens and TCP_QUICKACK after
/// every read (the benchmark's own clients: a round's frames leave at once,
/// and the peer's replies are acknowledged at once instead of waiting on
/// Nagle and delayed ACKs).
class TimedSocketApi : public bsim::SocketApi {
 public:
  TimedSocketApi(bsim::SocketApi& inner, Layer layer, bool nodelay = false)
      : inner_(inner), layer_(layer), nodelay_(nodelay) {}

  int OpenStream() override;
  int Bind(int fd, const bsim::SockAddr& addr) override;
  int Listen(int fd, int backlog) override;
  int Accept(int fd, bsim::SockAddr& peer) override;
  int Connect(int fd, const bsim::SockAddr& addr) override;
  long Send(int fd, const void* buf, std::size_t len) override;
  long Recv(int fd, void* buf, std::size_t len) override;
  int SockError(int fd) override;
  int LocalEndpoint(int fd, bsim::SockAddr& addr) override;
  int CloseFd(int fd) override;

  std::uint64_t recv_calls = 0;
  std::uint64_t recv_bytes = 0;
  std::uint64_t send_calls = 0;
  void ResetCounts() { recv_calls = recv_bytes = send_calls = 0; }

 private:
  bsim::SocketApi& inner_;
  Layer layer_;
  bool nodelay_;
};

// ---------------------------------------------------------------------------

class LayerTransport;

/// TransportConn pass-through. Times the Node's sends and its data sink; in
/// split mode it hands the sink at most one frame per call (cutting each
/// substrate read at frame boundaries, partial tails included), so each call
/// is one frame's cost.
class LayerConn final : public bsnet::TransportConn {
 public:
  LayerConn(LayerTransport& owner, bsnet::TransportConn& inner, bool outbound);
  LayerConn(const LayerConn&) = delete;
  LayerConn& operator=(const LayerConn&) = delete;

  bsproto::Endpoint Local() const override { return inner_.Local(); }
  bsproto::Endpoint Remote() const override { return inner_.Remote(); }
  bool IsInbound() const override { return inner_.IsInbound(); }
  bool IsEstablished() const override { return inner_.IsEstablished(); }
  void SetDataSink(std::function<void(bsutil::ByteSpan)> sink) override;
  void Send(bsutil::ByteSpan data) override;
  void Close() override { inner_.Close(); }
  void Reset() override { inner_.Reset(); }
  void SetReceiveBufferCap(std::size_t cap) override { inner_.SetReceiveBufferCap(cap); }

 private:
  void OnBytes(bsutil::ByteSpan data);
  /// Hands one piece to the node's sink; false once the sink is gone.
  bool Forward(bsutil::ByteSpan piece, bool completes_frame, bool first);

  LayerTransport& owner_;
  bsnet::TransportConn& inner_;
  std::function<void(bsutil::ByteSpan)> sink_;
  bsutil::ByteVec header_;     // bytes of the current frame's header seen so far
  std::size_t body_left_ = 0;  // payload bytes of the current frame still due
  std::size_t body_length_ = 0;  // the current frame's declared payload length
};

class LayerTransport final : public bsnet::Transport {
 public:
  LayerTransport(bsnet::Transport& inner, bool split) : inner_(inner), split_(split) {}

  /// Chains the node's on_frame hook so each delivered frame learns its
  /// decode status (bad checksum, unknown command) for the cost table.
  void Attach(bsnet::Node& node);

  std::uint32_t Ip() const override { return inner_.Ip(); }
  void Listen(std::uint16_t port, AcceptCallback on_accept) override;
  void StopListening(std::uint16_t port) override { inner_.StopListening(port); }
  bsnet::TransportConn* Connect(const bsproto::Endpoint& remote) override;
  bool IsSelf(const bsproto::Endpoint& ep) const override { return inner_.IsSelf(ep); }
  void Abandon() override { inner_.Abandon(); }

  /// Frames (one per Send call) this node sent toward `count_ip`.
  std::uint32_t count_ip = 0;
  std::uint64_t frames_sent = 0;

 private:
  friend class LayerConn;
  bsnet::TransportConn& Wrap(bsnet::TransportConn& conn, bool outbound);

  bsnet::Transport& inner_;
  bool split_;
  int last_status_ = -1;  // DecodeStatus of the frame the node just handled
  // Wrappers live until the run ends: the substrate may still fire a
  // callback captured by one after the node dropped its connection.
  std::vector<std::unique_ptr<LayerConn>> conns_;
};

// ---------------------------------------------------------------------------

/// Counts a workload collects over its measured phase; the per-layer report
/// is computed from these plus the Probe and the hot-path profiler.
struct LayerCounts {
  std::uint64_t frames = 0;        // complete frames handled by nodes under test
  std::uint64_t frame_bytes = 0;
  std::uint64_t events = 0;        // scheduler events executed
  std::uint64_t peak_pending = 0;  // scheduler queue high-water mark
  std::uint64_t segments = 0;      // sim-TCP segments sent
  std::uint64_t bans = 0;
  std::uint64_t score_updates = 0;
  std::uint64_t addr_evictions = 0;
  std::uint64_t shed_frames = 0;   // rate limiter + governor
  std::uint64_t monitor_msgs = 0;  // messages the §V Monitor observed
  std::uint64_t detect_ticks = 0;
  double replay_s = 0.0;
  const TimedFs* fs = nullptr;
  const TimedSocketApi* victim_api = nullptr;
};

/// Ordered name -> (value, unit) list with JSON output.
class Result {
 public:
  void Add(const std::string& name, double value, const char* unit);
  /// Records a failed correctness check (printed to stderr).
  void Check(bool ok, const std::string& what);
  bool Correct() const { return correct_; }
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Prints the one-line JSON object; returns the exit code.
  int Print() const;

 private:
  bool correct_ = true;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

/// Appends every per-layer metric (0 where a layer does no work on this
/// workload) to `out`, prints the Table II-shaped cost table to stderr and
/// checks its two properties: bad-checksum BLOCK cost rises with payload
/// size, and a valid BLOCK costs more than a PING.
void AddLayerMetrics(Result& out, const LayerCounts& c,
                     const bsobs::HotpathProfiler& profiler);

/// A node registry counter's value (0 when the node never registered it).
inline std::uint64_t CounterValue(const bsnet::Node& node, const char* name) {
  const bsobs::Counter* c = node.Metrics().FindCounter(name);
  return c == nullptr ? 0 : c->Value();
}

/// Median and other quantiles by linear interpolation; 0 for an empty set.
double Quantile(std::vector<double> values, double q);
double PeakRssMb();

/// A scratch directory under the working directory (the checkout when run
/// through run.py), emptied on creation and removed on destruction.
class WorkDir {
 public:
  explicit WorkDir(const std::string& name);
  ~WorkDir();
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
  const std::string& Path() const { return path_; }

 private:
  std::string path_;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string slow;  // "", "fs", "socket" or "node"
};

}  // namespace perfbench
