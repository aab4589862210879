//===--- mixyd.cpp - The analysis-as-a-service daemon -----------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
// Long-lived server over the AnalysisService: speaks newline-delimited
// JSON-RPC 2.0 on stdio (default) or a Unix socket (--listen=PATH), keeps
// the engines and persist sessions (block summaries) warm across requests,
// deduplicates identical in-flight requests by dependency-closure hash,
// and runs analyses on a thread pool behind admission control
// (--max-inflight) with an optional per-request deadline (--deadline-ms).
//
// Methods:
//   analyze      params = protocol-v1 AnalysisRequest (src/service/Protocol.h),
//                plus optional "stream": true to receive each diagnostic
//                as a "diagnostic" notification before the final result.
//   fileChanged  params = {"path": P}; drops cached responses computed
//                from P and invalidates warm per-function summaries.
//   status       in-flight/admission/cache counters, request-latency
//                quantiles, and the slowest requests seen so far.
//   metrics      the full metrics registry as OpenMetrics text.
//   shutdown     saves warm sessions, writes artifacts, exits cleanly.
//
// SIGINT/SIGTERM take the same clean-shutdown path as the shutdown
// method: in-flight work drains, warm sessions save, and the --trace /
// --metrics / --metrics-file artifacts flush before exit.
//
// The payload inside an "analyze" result is byte-identical to what the
// corresponding CLI prints for the same input and format (the CI daemon
// smoke diffs them).
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "service/AnalysisService.h"
#include "service/Protocol.h"
#include "support/Json.h"
#include "support/StringExtras.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <deque>
#include <future>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/ThreadPool.h"

using namespace mix;
namespace driver = mix::driver;
namespace service = mix::service;

namespace {

/// Set by the SIGINT/SIGTERM handler; polled by the serve loops. The
/// handlers are installed without SA_RESTART so a blocked read()/accept()
/// returns EINTR and the loop can notice the flag.
volatile std::sig_atomic_t GSignal = 0;

void onShutdownSignal(int Sig) { GSignal = Sig; }

void installSignalHandlers() {
  struct sigaction SA{};
  SA.sa_handler = onShutdownSignal;
  sigemptyset(&SA.sa_mask);
  SA.sa_flags = 0; // no SA_RESTART: blocked syscalls must wake up
  ::sigaction(SIGINT, &SA, nullptr);
  ::sigaction(SIGTERM, &SA, nullptr);
}

void printUsage(const driver::OptionParser &Parser) {
  std::cout <<
      R"(usage: mixyd [options]

Analysis daemon: newline-delimited JSON-RPC 2.0 over stdio, or over a
Unix socket with --listen=PATH. See DESIGN.md section 15 for the
protocol; requests carry their own output format, so the CLI-only output
flags (--format, --explain, --stats) do not exist here.

options:
)" << Parser.renderHelp()
            << R"(
exit status: 0 on clean shutdown, 2 on usage errors.
)";
}

/// One reply channel: stdout (Fd = -1) or a connected socket. Writes are
/// whole lines under a mutex so concurrent workers cannot interleave.
class Channel {
public:
  explicit Channel(int Fd) : Fd(Fd) {}

  void send(const std::string &Line) {
    std::lock_guard<std::mutex> Lock(WriteMu);
    if (Fd < 0) {
      std::cout << Line << "\n" << std::flush;
      return;
    }
    std::string Framed = Line + "\n";
    size_t Off = 0;
    while (Off < Framed.size()) {
      ssize_t N = ::write(Fd, Framed.data() + Off, Framed.size() - Off);
      if (N <= 0)
        return; // client went away; nothing useful to do
      Off += (size_t)N;
    }
  }

private:
  int Fd;
  std::mutex WriteMu;
};

/// Expires analyze tickets that outlive --deadline-ms: whoever claims the
/// ticket first (worker completion or this watcher) sends the reply.
class DeadlineWatcher {
  struct Ticket {
    std::chrono::steady_clock::time_point Deadline;
    std::shared_ptr<std::atomic<bool>> Claimed;
    std::function<void()> OnTimeout;
  };

public:
  ~DeadlineWatcher() { stop(); }

  void start() {
    Worker = std::thread([this] { run(); });
  }

  void add(std::chrono::steady_clock::time_point Deadline,
           std::shared_ptr<std::atomic<bool>> Claimed,
           std::function<void()> OnTimeout) {
    {
      std::lock_guard<std::mutex> Lock(M);
      Tickets.push_back({Deadline, std::move(Claimed), std::move(OnTimeout)});
    }
    CV.notify_one();
  }

  void stop() {
    {
      std::lock_guard<std::mutex> Lock(M);
      if (Stopped)
        return;
      Stopped = true;
    }
    CV.notify_one();
    if (Worker.joinable())
      Worker.join();
  }

private:
  void run() {
    std::unique_lock<std::mutex> Lock(M);
    while (!Stopped) {
      auto Now = std::chrono::steady_clock::now();
      std::vector<std::function<void()>> Fired;
      auto Next = Now + std::chrono::hours(24);
      for (size_t I = 0; I < Tickets.size();) {
        if (Tickets[I].Claimed->load()) {
          // The worker already replied; retire the ticket silently even
          // when the sweep runs at/after its deadline.
          Tickets[I] = std::move(Tickets.back());
          Tickets.pop_back();
          continue;
        }
        if (Tickets[I].Deadline <= Now) {
          // Fire only when this sweep wins the claim; losing the race
          // to a concurrent completion must stay silent too.
          if (!Tickets[I].Claimed->exchange(true) && Tickets[I].OnTimeout)
            Fired.push_back(std::move(Tickets[I].OnTimeout));
          Tickets[I] = std::move(Tickets.back());
          Tickets.pop_back();
          continue;
        }
        Next = std::min(Next, Tickets[I].Deadline);
        ++I;
      }
      if (!Fired.empty()) {
        Lock.unlock();
        for (auto &Fn : Fired)
          Fn();
        Lock.lock();
        continue;
      }
      if (Tickets.empty())
        CV.wait(Lock, [this] { return Stopped || !Tickets.empty(); });
      else
        CV.wait_until(Lock, Next);
    }
  }

  std::mutex M;
  std::condition_variable CV;
  std::vector<Ticket> Tickets;
  std::thread Worker;
  bool Stopped = false;
};

/// The daemon: owns the service (via a DriverContext so artifacts and
/// observability reuse the CLI plumbing), the worker pool, and admission
/// state. handleLine() is the whole protocol.
class Daemon {
public:
  Daemon(driver::DriverContext &Driver, unsigned Workers, unsigned MaxInflight,
         unsigned DeadlineMs)
      : Driver(Driver), Svc(Driver.service()), MaxInflight(MaxInflight),
        DeadlineMs(DeadlineMs),
        Pool(Workers, Driver.traceSink(), "mixyd") {
    if (DeadlineMs)
      Deadlines.start();
  }

  ~Daemon() { finish(); }

  /// Joins in-flight work and the deadline watcher. Call before saving
  /// sessions so no worker is still writing into them.
  void finish() {
    drainFutures();
    Deadlines.stop();
  }

  bool stopped() const { return Stop.load(); }

  /// Invoked (once) when a client asks for shutdown — the socket mode
  /// uses it to unblock accept().
  void onStop(std::function<void()> Fn) { StopFn = std::move(Fn); }

  void handleLine(const std::string &Line, std::shared_ptr<Channel> Out) {
    json::Value Msg;
    std::string ParseError;
    if (!json::parseDocument(Line, Msg, &ParseError)) {
      Out->send(service::rpcError("null", service::RpcParseError,
                                  "parse error: " + ParseError));
      return;
    }
    if (!Msg.isObject() || !Msg["method"].isString()) {
      Out->send(service::rpcError(service::encodeRpcId(Msg["id"]),
                                  service::RpcInvalidRequest,
                                  "expected an object with a \"method\""));
      return;
    }
    std::string Id = service::encodeRpcId(Msg["id"]);
    const std::string &Method = Msg["method"].Str;

    if (Method == "analyze")
      return analyze(Msg, Id, std::move(Out));
    if (Method == "fileChanged") {
      const json::Value &Path = Msg["params"]["path"];
      if (!Path.isString()) {
        Out->send(service::rpcError(Id, service::RpcInvalidParams,
                                    "params must carry a string \"path\""));
        return;
      }
      Svc.fileChanged(Path.Str);
      Out->send(service::rpcResult(Id, "{\"ok\": true}"));
      return;
    }
    if (Method == "status") {
      const obs::MetricsRegistry &Reg = Svc.metrics();
      std::string S =
          "{\"in_flight\": " + std::to_string(InFlightCount.load()) +
          ", \"max_inflight\": " + std::to_string(MaxInflight) +
          ", \"requests\": " +
          std::to_string(Reg.counterValue("service.requests")) +
          ", \"cache_hits\": " +
          std::to_string(Reg.counterValue("service.cache.hits")) +
          ", \"dedup_hits\": " +
          std::to_string(Reg.counterValue("service.dedup.hits")) +
          ", \"busy_rejections\": " +
          std::to_string(Reg.counterValue("daemon.busy_rejections")) +
          ", \"timeouts\": " +
          std::to_string(Reg.counterValue("daemon.timeouts"));
      // Latency quantiles over every executed (non-cached) request, in
      // integer microseconds — bucket-interpolated, so read them as
      // order-of-magnitude numbers, not exact ranks.
      obs::HistogramSnapshot H = Reg.histogramSnapshot("service.request.us");
      S += ", \"request_us\": {\"count\": " + std::to_string(H.Count) +
           ", \"p50\": " + std::to_string((uint64_t)(H.quantile(0.5) + 0.5)) +
           ", \"p90\": " + std::to_string((uint64_t)(H.quantile(0.9) + 0.5)) +
           ", \"p99\": " + std::to_string((uint64_t)(H.quantile(0.99) + 0.5)) +
           "}";
      S += ", \"slow_requests\": [";
      bool FirstSlow = true;
      for (const service::SlowRequest &SR : Svc.slowRequests()) {
        S += FirstSlow ? "{" : ", {";
        FirstSlow = false;
        S += "\"id\": \"" + jsonEscape(SR.Id) + "\", \"key\": \"" +
             std::to_string(SR.Key) + "\", \"total_us\": " +
             std::to_string(SR.TotalUs) + ", \"exit\": " +
             std::to_string(SR.Exit) + ", \"warnings\": " +
             std::to_string(SR.Warnings) + ", \"errors\": " +
             std::to_string(SR.Errors);
        std::string Phases;
        for (unsigned I = 0; I != obs::NumPhases; ++I) {
          if (!SR.PhaseUs[I])
            continue;
          Phases += Phases.empty() ? "{" : ", ";
          Phases += "\"" + std::string(obs::phaseName((obs::Phase)I)) +
                    "\": " + std::to_string(SR.PhaseUs[I]);
        }
        if (!Phases.empty())
          S += ", \"phases\": " + Phases + "}";
        S += "}";
      }
      S += "]}";
      Out->send(service::rpcResult(Id, S));
      return;
    }
    if (Method == "metrics") {
      Out->send(service::rpcResult(
          Id, "{\"openmetrics\": \"" +
                  jsonEscape(Svc.metrics().renderOpenMetrics()) + "\"}"));
      return;
    }
    if (Method == "shutdown") {
      Out->send(service::rpcResult(Id, "{\"ok\": true}"));
      Stop.store(true);
      if (StopFn)
        StopFn();
      return;
    }
    Out->send(service::rpcError(Id, service::RpcMethodNotFound,
                                "unknown method '" + Method + "'"));
  }

private:
  void analyze(const json::Value &Msg, const std::string &Id,
               std::shared_ptr<Channel> Out) {
    const json::Value &Params = Msg["params"];
    if (!Params.isObject()) {
      Out->send(service::rpcError(Id, service::RpcInvalidParams,
                                  "params must be a request object"));
      return;
    }

    // "stream" is framing, not analysis input: strip it before the strict
    // protocol decode.
    bool Stream = Params["stream"].boolean();
    json::Value Req = Params;
    Req.Fields.erase("stream");

    service::AnalysisRequest AReq;
    std::string DecodeError;
    if (!service::decodeRequest(Req, AReq, DecodeError)) {
      Out->send(
          service::rpcError(Id, service::RpcInvalidParams, DecodeError));
      return;
    }

    // Daemon-level defaults for fields the request left unset: the
    // launch flags name the cache directory and solver this server warms.
    if (!Params.has("cache_dir"))
      AReq.CacheDir = Driver.cacheDir();
    if (!Params.has("solver"))
      AReq.Solver.Backend = Driver.solverSpec().Backend;
    if (!Params.has("trace"))
      AReq.Trace = Driver.traceSink() != nullptr;

    // Admission control: never more than --max-inflight analyses queued
    // or running; extra requests get a structured busy error immediately.
    unsigned Queued = InFlightCount.fetch_add(1);
    if (Queued >= MaxInflight) {
      InFlightCount.fetch_sub(1);
      Svc.metrics().counter("daemon.busy_rejections").inc();
      Out->send(service::rpcError(
          Id, service::RpcServerBusy,
          "server busy: " + std::to_string(MaxInflight) +
              " requests already in flight"));
      return;
    }

    // First claimant replies: the worker with the result, or the
    // deadline watcher with a timeout error. The slot is only freed when
    // the analysis actually finishes — a timed-out request keeps
    // consuming its slot until then, which is what bounds engine load.
    auto Claimed = std::make_shared<std::atomic<bool>>(false);
    if (DeadlineMs) {
      Deadlines.add(std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(DeadlineMs),
                    Claimed, [this, Id, Out] {
                      Svc.metrics().counter("daemon.timeouts").inc();
                      Out->send(service::rpcError(
                          Id, service::RpcDeadlineExceeded,
                          "deadline exceeded after " +
                              std::to_string(DeadlineMs) + " ms"));
                    });
    }

    auto Future = Pool.submit([this, AReq = std::move(AReq), Id, Out, Claimed,
                               Stream] {
      service::AnalysisResponse Resp = Svc.serve(AReq);
      InFlightCount.fetch_sub(1);
      if (Claimed->exchange(true))
        return; // timed out; the error envelope already went out
      if (Stream)
        for (const service::DiagnosticSummary &D : Resp.Diagnostics)
          Out->send(service::rpcNotification(
              "diagnostic",
              "{\"request\": " + Id + ", \"diagnostic\": {\"id\": \"" +
                  jsonEscape(D.Id) + "\", \"severity\": \"" +
                  jsonEscape(D.Severity) + "\", \"line\": " +
                  std::to_string(D.Line) + ", \"column\": " +
                  std::to_string(D.Column) + ", \"message\": \"" +
                  jsonEscape(D.Message) + "\"}}"));
      Out->send(service::rpcResult(Id, service::encodeResponse(Resp)));
    });
    trackFuture(std::move(Future));
  }

  /// Outstanding futures must be awaited before the pool dies; completed
  /// ones are reaped opportunistically so the deque stays bounded by the
  /// admission cap.
  void trackFuture(std::future<void> Future) {
    std::lock_guard<std::mutex> Lock(FuturesMu);
    for (size_t I = 0; I < Futures.size();) {
      if (Futures[I].wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        Futures[I] = std::move(Futures.back());
        Futures.pop_back();
      } else {
        ++I;
      }
    }
    Futures.push_back(std::move(Future));
  }

  void drainFutures() {
    std::vector<std::future<void>> Local;
    {
      std::lock_guard<std::mutex> Lock(FuturesMu);
      Local.swap(Futures);
    }
    for (auto &F : Local)
      F.get();
  }

  driver::DriverContext &Driver;
  service::AnalysisService &Svc;
  unsigned MaxInflight;
  unsigned DeadlineMs;
  rt::ThreadPool Pool;
  DeadlineWatcher Deadlines;
  std::atomic<unsigned> InFlightCount{0};
  std::atomic<bool> Stop{false};
  std::function<void()> StopFn;
  std::mutex FuturesMu;
  std::vector<std::future<void>> Futures;
};

/// Reads newline-delimited messages from \p Fd until EOF, daemon stop, or
/// a shutdown signal.
void serveFd(Daemon &D, int Fd, std::shared_ptr<Channel> Out) {
  std::string Buf;
  char Chunk[4096];
  while (!D.stopped() && !GSignal) {
    ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
    if (N < 0 && errno == EINTR)
      continue; // the loop condition rechecks GSignal
    if (N <= 0)
      break;
    Buf.append(Chunk, (size_t)N);
    size_t Start = 0;
    for (size_t NL; (NL = Buf.find('\n', Start)) != std::string::npos;
         Start = NL + 1) {
      std::string Line = Buf.substr(Start, NL - Start);
      if (!std::string(trim(Line)).empty())
        D.handleLine(Line, Out);
      if (D.stopped())
        break;
    }
    Buf.erase(0, Start);
  }
}

} // namespace

int main(int Argc, char **Argv) {
  bool Help = false;
  std::string ListenPath;
  unsigned MaxInflight = 8;
  unsigned DeadlineMs = 0;
  unsigned Workers = rt::ThreadPool::hardwareWorkers();

  driver::OptionParser Parser("mixyd");
  // Per-request output makes the CLI-output flags meaningless here; the
  // exclusion keeps them out of parsing, help, and did-you-mean — an
  // excluded flag is exactly as unknown as a misspelled one.
  Parser.excludeGroup("cli-output");
  driver::DriverContext Driver([] {
    service::ServiceConfig SC;
    SC.KeepWarm = true;
    SC.PerRequestMetrics = true;
    // Daemon responses always carry their request id and phase breakdown;
    // span trees additionally need the request to ask for tracing.
    SC.RequestTelemetry = true;
    return SC;
  }());

  Parser.value(
      "--listen",
      [&](const std::string &V) {
        if (V.empty())
          return false;
        ListenPath = V;
        return true;
      },
      "PATH", "accept connections on a Unix socket at PATH instead of\n"
              "serving one client on stdio");
  Parser.value(
      "--max-inflight",
      [&](const std::string &V) {
        return driver::OptionParser::parseUnsigned(V, MaxInflight) &&
               MaxInflight != 0;
      },
      "N", "admit at most N concurrent analyze requests; extras get a\n"
           "structured \"server busy\" error (default 8)");
  Parser.value(
      "--deadline-ms",
      [&](const std::string &V) {
        return driver::OptionParser::parseUnsigned(V, DeadlineMs);
      },
      "T", "answer analyze requests that run longer than T ms with a\n"
           "structured timeout error (default 0 = no deadline)");
  std::string MetricsFilePath;
  unsigned MetricsIntervalMs = 5000;
  Parser.value(
      "--metrics-file",
      [&](const std::string &V) {
        if (V.empty())
          return false;
        MetricsFilePath = V;
        return true;
      },
      "PATH", "periodically rewrite PATH with the metrics registry as\n"
              "OpenMetrics text (scrape it with any OpenMetrics collector);\n"
              "also flushed once at shutdown");
  Parser.value(
      "--metrics-interval-ms",
      [&](const std::string &V) {
        return driver::OptionParser::parseUnsigned(V, MetricsIntervalMs) &&
               MetricsIntervalMs != 0;
      },
      "T", "rewrite --metrics-file every T ms (default 5000)");
  Parser.jobs(&Workers,
              "serve analyze requests on N pool workers (default: one per\n"
              "hardware thread)");
  Driver.registerOptions(Parser);
  Parser.flag("--help", &Help, "this text");

  if (!Parser.parse(Argc, Argv))
    return driver::ExitUsage;
  if (Help) {
    printUsage(Parser);
    return driver::ExitClean;
  }
  if (!Parser.positionals().empty()) {
    std::cerr << "mixyd: extra argument '" << Parser.positionals()[0] << "'\n";
    return driver::ExitUsage;
  }

  Daemon D(Driver, Workers, MaxInflight, DeadlineMs);
  installSignalHandlers();

  // The --metrics-file flusher: one background thread rewriting the file
  // every interval, woken early at shutdown for the final flush. It reads
  // the metrics' atomics while workers add to them, so an off-barrier
  // flush is approximate in the same way any scrape of a live process is.
  std::mutex FlushMu;
  std::condition_variable FlushCv;
  bool FlushStop = false;
  std::thread Flusher;
  if (!MetricsFilePath.empty())
    Flusher = std::thread([&] {
      std::unique_lock<std::mutex> Lock(FlushMu);
      for (;;) {
        FlushCv.wait_for(Lock, std::chrono::milliseconds(MetricsIntervalMs),
                         [&] { return FlushStop; });
        if (FlushStop)
          return;
        Lock.unlock();
        driver::writeFile("mixyd", MetricsFilePath,
                          Driver.metrics().renderOpenMetrics());
        Lock.lock();
      }
    });

  if (ListenPath.empty()) {
    // Stdio mode: one client, the pipe is the connection. Reading fd 0
    // directly (instead of std::getline) lets a shutdown signal
    // interrupt the blocked read.
    auto Out = std::make_shared<Channel>(-1);
    serveFd(D, 0, Out);
  } else {
    int ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (ListenFd < 0) {
      std::cerr << "mixyd: cannot create socket\n";
      return driver::ExitUsage;
    }
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    if (ListenPath.size() >= sizeof(Addr.sun_path)) {
      std::cerr << "mixyd: socket path too long '" << ListenPath << "'\n";
      return driver::ExitUsage;
    }
    std::snprintf(Addr.sun_path, sizeof(Addr.sun_path), "%s",
                  ListenPath.c_str());
    ::unlink(ListenPath.c_str());
    if (::bind(ListenFd, (sockaddr *)&Addr, sizeof(Addr)) < 0 ||
        ::listen(ListenFd, 16) < 0) {
      std::cerr << "mixyd: cannot listen on '" << ListenPath << "'\n";
      ::close(ListenFd);
      return driver::ExitUsage;
    }

    // The shutdown method unblocks the accept loop by closing the
    // listener's read side from the handling thread.
    D.onStop([ListenFd] { ::shutdown(ListenFd, SHUT_RDWR); });

    std::vector<std::thread> Clients;
    std::vector<int> ClientFds;
    std::mutex ClientsMu;
    while (!D.stopped() && !GSignal) {
      int Fd = ::accept(ListenFd, nullptr, nullptr);
      if (Fd < 0) {
        if (errno == EINTR && !GSignal && !D.stopped())
          continue;
        break;
      }
      if (D.stopped() || GSignal) {
        ::close(Fd);
        break;
      }
      {
        std::lock_guard<std::mutex> Lock(ClientsMu);
        ClientFds.push_back(Fd);
      }
      // The Channel outlives this reader thread through the shared_ptr
      // any in-flight worker holds; only the read side ends at EOF.
      Clients.emplace_back([&D, Fd] {
        auto Out = std::make_shared<Channel>(Fd);
        serveFd(D, Fd, Out);
      });
    }
    ::close(ListenFd);
    ::unlink(ListenPath.c_str());
    // Unblock the reader threads but leave the write side open: drained
    // in-flight workers can still deliver their final replies.
    {
      std::lock_guard<std::mutex> Lock(ClientsMu);
      for (int Fd : ClientFds)
        ::shutdown(Fd, SHUT_RD);
    }
    for (std::thread &T : Clients)
      T.join();
    // Drain in-flight analyses before closing the fds their Channels
    // wrap: the analyses themselves open files (source reads, persist
    // save, artifacts), so a closed fd number could be reused and a late
    // reply would write response JSON into an unrelated file.
    D.finish();
    {
      std::lock_guard<std::mutex> Lock(ClientsMu);
      for (int Fd : ClientFds)
        ::close(Fd);
    }
  }

  // Clean shutdown — reached from the shutdown method, client EOF, and
  // SIGINT/SIGTERM alike: finish in-flight work first, then publish warm
  // sessions and flush the --trace/--metrics/--metrics-file artifacts
  // (the final --metrics-file write runs at a barrier, so it is exact).
  D.finish();
  if (Flusher.joinable()) {
    {
      std::lock_guard<std::mutex> Lock(FlushMu);
      FlushStop = true;
    }
    FlushCv.notify_one();
    Flusher.join();
  }
  bool Ok = Driver.writeArtifacts("mixyd");
  if (!MetricsFilePath.empty())
    Ok = driver::writeFile("mixyd", MetricsFilePath,
                           Driver.metrics().renderOpenMetrics()) && Ok;
  return Ok ? driver::ExitClean : driver::ExitUsage;
}
