#ifndef CARAC_NET_SERVER_H_
#define CARAC_NET_SERVER_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/commands.h"
#include "net/injector_queue.h"
#include "util/status.h"

namespace carac::net {

struct ServerConfig {
  /// Unix-domain socket path ("" = no unix listener).
  std::string unix_path;
  /// TCP port on 127.0.0.1 (-1 = no tcp listener, 0 = ephemeral; read
  /// the resolved port back with Server::tcp_port()).
  int tcp_port = -1;
  /// Per-core worker threads; each owns an injector queue and the
  /// sessions pinned to it.
  int num_workers = 1;
  /// Max requests a worker admits per queue pop — bounds how long one
  /// chatty session can monopolize its worker between wakeups.
  size_t admission_batch = 16;
};

/// The concurrent serving layer: a socket server speaking the serve
/// command protocol, one line per request, over Unix-domain and TCP
/// stream sockets.
///
/// Threading model (KVell-style share-nothing request routing):
///
///   - ONE dispatcher thread owns every socket read: it polls the
///     listeners and all session fds, accepts connections (pinning each
///     session to a worker round-robin), reassembles lines, and admits
///     them in batches into the workers' injector queues.
///   - N worker threads each own an injector queue and execute requests
///     for THEIR sessions only, writing responses straight to the
///     session socket. A session's requests live on exactly one queue,
///     so responses come back in request order and no session state is
///     ever shared between workers.
///   - Reads (count/dump/stats) run against the engine's published
///     epoch-snapshot ReadView — many workers read concurrently and are
///     never blocked by an in-flight write. Writes (load/update/save/
///     open) serialize through ServeContext::write_mutex into the
///     engine's single-writer epoch pipeline.
///
/// Response framing: every non-empty request line gets zero or more
/// "| "-prefixed payload lines followed by "ok" or "err <diagnostic>";
/// blank/comment lines get nothing (see WireResponse).
///
/// Shutdown contract: RequestShutdown() (async-signal-safe; also wired
/// to a failed `open`, after which serving would lie) makes the
/// dispatcher stop accepting, hand every session's already-admitted
/// requests to its worker followed by a close marker, and post one
/// shutdown marker per queue. Workers finish what was admitted —
/// responses for requests the server already read are written, then
/// fds close. Wait() joins everything; in-flight writes complete, the
/// engine is quiescent when it returns. A client that stops reading
/// holds its worker (and so shutdown) for about kWriteStallLimitMs; then
/// its socket is shut down, its other admitted requests are dropped and
/// the session is retired.
class Server {
 public:
  /// `ctx` must outlive the server; ServeContext::write_mutex must be
  /// set when num_workers > 1 (the constructor checks).
  Server(ServeContext* ctx, ServerConfig config);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the configured listeners and spawns the dispatcher and
  /// worker threads. On error nothing is left running.
  util::Status Start();

  /// Triggers shutdown without blocking. Async-signal-safe (one write
  /// to the self-pipe), idempotent, callable from any thread.
  void RequestShutdown();

  /// Joins the dispatcher and workers. Returns once every session is
  /// closed and every thread exited.
  void Wait();

  /// Resolved TCP port (meaningful after Start() when tcp was asked
  /// for; this is how an ephemeral-port server is discovered).
  int tcp_port() const { return resolved_tcp_port_; }

  /// True if the server stopped because serving became unsound (a
  /// failed `open` left the database partially overwritten). The CLI
  /// exits nonzero on it.
  bool fatal_error() const { return fatal_.load(std::memory_order_relaxed); }

  /// A response write that makes no progress for this long (the client
  /// stopped reading) shuts the session's socket down instead of
  /// waiting on.
  static constexpr int kWriteStallLimitMs = 5000;

 private:
  void DispatcherLoop();
  void WorkerLoop(size_t worker_index);
  /// Writes all of `data` to `fd`, polling out EAGAIN; gives up
  /// silently on a dead peer (the dispatcher will see the EOF). Returns
  /// false only when the client stopped reading: after
  /// kWriteStallLimitMs without progress the socket is shut down.
  static bool WriteAll(int fd, const std::string& data);

  ServeContext* ctx_;
  ServerConfig config_;
  int unix_listen_fd_ = -1;
  int tcp_listen_fd_ = -1;
  int resolved_tcp_port_ = -1;
  /// Self-pipe: RequestShutdown writes a byte, the dispatcher's poll
  /// wakes on it. The only signal-safe way to kick a poll loop.
  int wake_pipe_[2] = {-1, -1};
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<bool> fatal_{false};
  std::vector<std::unique_ptr<InjectorQueue>> queues_;
  std::thread dispatcher_;
  std::vector<std::thread> workers_;
  bool started_ = false;
};

}  // namespace carac::net

#endif  // CARAC_NET_SERVER_H_
