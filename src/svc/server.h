// Loopback TCP server for the gpumbir.svc/1 protocol.
//
// Transport topology: one acceptor thread blocks in accept(); each
// connection gets its own handler thread that loops
// readFrame -> dispatch verb -> writeFrame. All reconstruction work happens
// on the svc::Dispatcher's device threads — a connection thread only
// parses, submits, snapshots and serializes, so a slow reconstruction never
// blocks other clients' control traffic (a `result` verb that waits for a
// job is the one deliberate exception: it parks that connection only).
//
// Lifecycle and fd ownership: handler threads never close their own socket
// — they mark themselves done and the owning server closes fds when it
// reaps (on later accepts) or stops. That keeps the fd-close/reuse race out
// of the design entirely: an fd is closed exactly once, after its thread
// has been joined. stop() shuts the listener and every live connection
// down (shutdown() wakes blocked reads), then joins everything; it is
// idempotent and also runs from the destructor.
//
// The server binds 127.0.0.1 only: this is an in-machine service boundary
// (tests, benches, local tooling), not an exposed network daemon.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <thread>

#include "recon/case_library.h"
#include "store/cache.h"
#include "store/wal.h"
#include "svc/dispatcher.h"
#include "svc/protocol.h"

namespace mbir::svc {

/// Resolves a submit request's case index to a reconstruction problem. The
/// returned references must stay valid until the server is drained (the
/// dispatcher borrows them for queued jobs).
class JobSource {
 public:
  virtual ~JobSource() = default;
  struct Case {
    const OwnedProblem& problem;
    const Image2D& golden;
  };
  /// Throws mbir::Error for indices the source cannot serve (the server
  /// turns that into an ok:false response on the offending connection).
  virtual Case get(int case_index) = 0;
};

/// The standard production source: a thread-safe lazily-built CaseLibrary.
class CaseLibraryJobSource : public JobSource {
 public:
  explicit CaseLibraryJobSource(CaseLibrary& lib) : lib_(lib) {}
  Case get(int case_index) override {
    CaseLibrary::Case c = lib_.get(case_index);
    return Case{c.problem, c.golden};
  }

 private:
  CaseLibrary& lib_;
};

struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 = let the kernel pick (read it back via
  /// port(), e.g. for tests and --port-file).
  std::uint16_t port = 0;
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  DispatcherOptions dispatch;
  /// Base RunConfig submits are applied onto (see makeRunConfig()).
  RunConfig base_config;
  /// Durable job log (nullptr = off). Borrowed; must outlive the server.
  /// When set, submits are acknowledged only after their admit record is on
  /// disk, and the constructor re-dispatches every admitted-but-unfinished
  /// job the log replayed (DESIGN.md §14).
  store::JobLog* wal = nullptr;
  /// Content-addressed result cache (nullptr = off). Borrowed; must outlive
  /// the server. Exact hits are served without dispatching; near-duplicates
  /// (same inputs, different config) warm-start from the most-converged
  /// cached image.
  store::ResultCache* cache = nullptr;
};

class Server {
 public:
  /// Binds + listens + starts the acceptor (throws mbir::Error on bind
  /// failure). `source` is borrowed and must outlive the server.
  Server(ServerOptions options, JobSource& source);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The actually-bound port (resolves port 0).
  std::uint16_t port() const { return port_; }

  Dispatcher& dispatcher() { return dispatcher_; }
  const Dispatcher& dispatcher() const { return dispatcher_; }

  /// True once any client has issued the drain verb (the dispatcher is
  /// drained by then; the process should stop() and exit).
  bool drainRequested() const {
    return drain_requested_.load(std::memory_order_acquire);
  }

  /// Drain the dispatcher (idempotent; also triggered by the drain verb)
  /// and return the final report.
  const SvcReport& drainAndReport();

  /// Stop accepting, wake and join every connection thread, close all fds.
  /// Idempotent; called by the destructor. Does NOT drain the dispatcher —
  /// jobs already admitted keep running unless the dispatcher is destroyed.
  void stop();

 private:
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void acceptLoop();
  void handleConnection(Connection& conn);
  /// One request -> one response payload. Never throws: protocol and
  /// dispatcher errors become ok:false responses.
  std::string handleRequest(const Request& req);
  std::string handleSubmit(const Request& req);
  std::string handleStatus(const Request& req);
  std::string handleCancel(const Request& req);
  std::string handleResult(const Request& req);
  std::string handleStats();
  std::string handleFlight(const Request& req);
  std::string handleChaos(const Request& req);
  std::string handleDrain();
  /// Join + close finished connections (called on the acceptor thread).
  void reapConnectionsLocked();

  /// Per-job store bookkeeping: which WAL record and cache key a live job
  /// belongs to, registered at submit and consumed at terminal.
  struct StoreRec {
    std::int64_t wal_id = -1;
    std::uint64_t input_hash = 0;
    std::string config_key;
  };
  /// opt_.dispatch plus the on_terminal hook into the store (when enabled).
  DispatcherOptions makeDispatchOptions();
  /// Re-dispatch every admitted-but-unfinished job from the WAL replay
  /// (constructor, before the acceptor starts).
  void recoverPendingJobs();
  /// The dispatcher job a submit request describes (fault spec included).
  JobSpec makeJobSpec(const SubmitParams& p, const JobSource::Case& c) const;
  /// Memoized hashCaseInputs per case index (sinogram hashing is O(data)).
  std::uint64_t caseInputHash(int case_index, const JobSource::Case& c);
  void registerStoreRec(int job_id, StoreRec rec);
  /// Dispatcher terminal callback (runs on device threads, off-lock).
  void onJobTerminal(const JobStatus& s);
  /// Cache insert + WAL terminal for one finished job. Never throws: a
  /// store I/O failure must not kill a device thread.
  void finishStoreRec(const StoreRec& rec, const JobStatus& s);

  ServerOptions opt_;
  JobSource& source_;
  // Store bookkeeping is declared before dispatcher_ so it is still alive
  // while the dispatcher destructor flushes its last terminal callbacks.
  std::mutex store_mu_;
  std::map<int, StoreRec> job_store_;
  /// Terminal snapshots that raced ahead of registerStoreRec (a fast job
  /// can finish before handleSubmit records its StoreRec).
  std::map<int, JobStatus> unclaimed_terminal_;
  std::map<int, std::uint64_t> case_input_hash_;
  Dispatcher dispatcher_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<bool> drain_requested_{false};
  std::thread acceptor_;
  std::mutex conn_mu_;
  std::list<Connection> connections_;  // list: stable addresses for threads
};

}  // namespace mbir::svc
