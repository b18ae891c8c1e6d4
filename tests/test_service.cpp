// In-process lrdipd server tests: the typed-error contract, digest parity
// with the one-shot Runtime path, backpressure, deadlines, the watchdog's
// worker replacement, and drain semantics.
//
// Each test boots a real Server on its own unix socket under /tmp and talks
// to it through the real Client — the full wire path, minus the process
// boundary (the CI service-smoke job covers that).
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dip/parallel.hpp"
#include "dip/runtime.hpp"
#include "gen/generators.hpp"
#include "graph/io.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "support/rng.hpp"

namespace lrdip::service {
namespace {

std::string test_socket(const char* tag) {
  std::ostringstream os;
  os << "/tmp/lrdip_test_" << ::getpid() << "_" << tag << ".sock";
  return os.str();
}

ServerConfig base_config(const std::string& socket) {
  ServerConfig cfg;
  cfg.socket_path = socket;
  cfg.worker_threads = 2;
  cfg.c = 3;
  return cfg;
}

Request verify_request(std::uint64_t id, Task task, std::uint32_t n, BodyKind body) {
  Request req;
  req.type = MsgType::verify;
  req.request_id = id;
  req.task = static_cast<std::uint8_t>(task);
  req.body = body;
  req.n = n;
  req.gen_seed = 11 + id;
  req.seed = 101 + id;
  req.c = 3;
  return req;
}

TEST(Service, DigestParityWithOneShotRuntime) {
  const std::string socket = test_socket("parity");
  Server server(base_config(socket));
  ASSERT_TRUE(server.start()) << server.error();
  Client client(ClientConfig{socket});

  // The local runtime is the one-shot CLI path; the service must answer
  // every (task, body, n, seeds) point with the identical outcome bits.
  const Runtime local(Runtime::Config{{3}});
  std::uint64_t id = 0;
  for (int t = 0; t < kNumTasks; ++t) {
    for (const BodyKind body : {BodyKind::genspec_yes, BodyKind::genspec_near_no}) {
      ++id;
      const Request req = verify_request(id, static_cast<Task>(t), 32 + 4 * id % 32, body);
      Response resp;
      ASSERT_TRUE(client.call(req, &resp)) << client.error();
      ASSERT_EQ(resp.status, ServiceStatus::ok) << resp.text;

      Rng gen(req.gen_seed);
      const BoundInstance bi =
          body == BodyKind::genspec_yes
              ? make_yes_instance(static_cast<Task>(t), static_cast<int>(req.n), gen)
              : make_near_no_instance(static_cast<Task>(t), static_cast<int>(req.n), gen);
      Rng coins(req.seed);
      const Outcome want = local.run(bi.view(), coins);
      EXPECT_EQ(resp.outcome_digest, outcome_digest(want)) << "task " << t;
      EXPECT_EQ(resp.accepted, want.accepted);
      EXPECT_EQ(resp.proof_size_bits, static_cast<std::uint32_t>(want.proof_size_bits));
      if (body == BodyKind::genspec_yes) {
        EXPECT_TRUE(resp.accepted);
      }
    }
  }
  server.stop();
}

TEST(Service, InlineGraphVerifiesAndMatchesLocalBind) {
  const std::string socket = test_socket("inline");
  Server server(base_config(socket));
  ASSERT_TRUE(server.start()) << server.error();
  Client client(ClientConfig{socket});

  GraphFile gf;
  gf.graph = cycle_graph(24);
  std::ostringstream text;
  write_graph(text, gf);

  Request req;
  req.type = MsgType::verify;
  req.request_id = 1;
  req.task = static_cast<std::uint8_t>(Task::outerplanar);
  req.body = BodyKind::inline_graph;
  req.graph_text = text.str();
  req.seed = 31;
  req.c = 3;
  Response resp;
  ASSERT_TRUE(client.call(req, &resp)) << client.error();
  ASSERT_EQ(resp.status, ServiceStatus::ok) << resp.text;
  EXPECT_TRUE(resp.accepted);

  std::istringstream is(text.str());
  const GraphFile parsed = read_graph(is);
  const BoundInstance bi = bind_instance(Task::outerplanar, parsed);
  const Runtime local(Runtime::Config{{3}});
  Rng coins(req.seed);
  EXPECT_EQ(resp.outcome_digest, outcome_digest(local.run(bi.view(), coins)));
  server.stop();
}

TEST(Service, TypedErrorsForEveryBadRequestShape) {
  const std::string socket = test_socket("typed");
  ServerConfig cfg = base_config(socket);
  cfg.max_instance_nodes = 4096;
  Server server(cfg);
  ASSERT_TRUE(server.start()) << server.error();
  Client client(ClientConfig{socket});
  Response resp;

  // Undecodable payload -> malformed_frame, and the connection stays usable.
  const std::vector<std::uint8_t> junk = {9, 9, 9, 9, 9};
  ASSERT_TRUE(client.send_raw(junk));
  ASSERT_TRUE(client.read_reply(&resp));
  EXPECT_EQ(resp.status, ServiceStatus::malformed_frame);
  ASSERT_TRUE(client.call_once(verify_request(2, Task::lr_sorting, 32, BodyKind::genspec_yes),
                               &resp));
  EXPECT_EQ(resp.status, ServiceStatus::ok) << "connection must survive a malformed frame";

  // Unknown task -> bad_request.
  Request req = verify_request(3, Task::lr_sorting, 32, BodyKind::genspec_yes);
  req.task = 99;
  ASSERT_TRUE(client.call_once(req, &resp));
  EXPECT_EQ(resp.status, ServiceStatus::bad_request);

  // Soundness exponent mismatch -> bad_request naming the server's c.
  req = verify_request(4, Task::lr_sorting, 32, BodyKind::genspec_yes);
  req.c = 5;
  ASSERT_TRUE(client.call_once(req, &resp));
  EXPECT_EQ(resp.status, ServiceStatus::bad_request);
  EXPECT_NE(resp.text.find("c=3"), std::string::npos) << resp.text;

  // n = 0 and n over the ceiling -> bad_request / too_large.
  req = verify_request(5, Task::lr_sorting, 0, BodyKind::genspec_yes);
  ASSERT_TRUE(client.call_once(req, &resp));
  EXPECT_EQ(resp.status, ServiceStatus::bad_request);
  req = verify_request(6, Task::lr_sorting, 1u << 20, BodyKind::genspec_yes);
  ASSERT_TRUE(client.call_once(req, &resp));
  EXPECT_EQ(resp.status, ServiceStatus::too_large);

  // Corrupt inline graph -> bad_request carrying the parser's line message.
  req = verify_request(7, Task::outerplanar, 0, BodyKind::inline_graph);
  req.graph_text = "graph 3 2\ne 0 banana\n";
  ASSERT_TRUE(client.call_once(req, &resp));
  EXPECT_EQ(resp.status, ServiceStatus::bad_request);
  EXPECT_NE(resp.text.find("line 2"), std::string::npos) << resp.text;

  // Certificates unusable for the task -> bad_request, not a crash.
  req = verify_request(8, Task::lr_sorting, 0, BodyKind::inline_graph);
  req.graph_text = "graph 3 2\ne 0 1\ne 1 2\n";  // lr-sorting needs order+tails
  ASSERT_TRUE(client.call_once(req, &resp));
  EXPECT_EQ(resp.status, ServiceStatus::bad_request);

  // A parallel edge -> bad_request from bind, not internal_error from a
  // simplicity check inside the run.
  req = verify_request(9, Task::planarity, 0, BodyKind::inline_graph);
  req.graph_text = "graph 3 3\ne 0 1\ne 0 1\ne 1 2\n";
  ASSERT_TRUE(client.call_once(req, &resp));
  EXPECT_EQ(resp.status, ServiceStatus::bad_request);
  EXPECT_NE(resp.text.find("simple graph"), std::string::npos) << resp.text;

  // Certificate defects -> bad_request from the parser, not internal_error
  // from the prover: an order repeating a node, a tail off its edge.
  req = verify_request(11, Task::log_star_planarity, 0, BodyKind::inline_graph);
  req.graph_text = "graph 3 2\ne 0 1\ne 1 2\norder 0 1 1\ntails 0 1\n";
  ASSERT_TRUE(client.call_once(req, &resp));
  EXPECT_EQ(resp.status, ServiceStatus::bad_request);
  EXPECT_NE(resp.text.find("exactly once"), std::string::npos) << resp.text;
  req = verify_request(12, Task::lr_sorting, 0, BodyKind::inline_graph);
  req.graph_text = "graph 3 2\ne 0 1\ne 0 2\norder 1 0 2\ntails 0 1\n";
  ASSERT_TRUE(client.call_once(req, &resp));
  EXPECT_EQ(resp.status, ServiceStatus::bad_request);
  EXPECT_NE(resp.text.find("not an endpoint"), std::string::npos) << resp.text;

  // sleep_ms without test hooks -> bad_request.
  req.type = MsgType::sleep_ms;
  req.request_id = 10;
  req.sleep_ms = 10;
  ASSERT_TRUE(client.call_once(req, &resp));
  EXPECT_EQ(resp.status, ServiceStatus::bad_request);
  server.stop();
}

TEST(Service, OversizedFrameAnsweredThenConnectionDropped) {
  const std::string socket = test_socket("oversize");
  ServerConfig cfg = base_config(socket);
  cfg.max_frame_bytes = 1024;
  Server server(cfg);
  ASSERT_TRUE(server.start()) << server.error();
  Client client(ClientConfig{socket});
  ASSERT_TRUE(client.connect());

  const std::uint32_t lie = 1 << 20;
  std::uint8_t hdr[4];
  for (int k = 0; k < 4; ++k) hdr[k] = static_cast<std::uint8_t>(lie >> (8 * k));
  ASSERT_EQ(::write(client.fd(), hdr, 4), 4);
  Response resp;
  ASSERT_TRUE(client.read_reply(&resp));
  EXPECT_EQ(resp.status, ServiceStatus::too_large);
  // Past the lying header the stream is unframed; the server must hang up.
  EXPECT_FALSE(client.read_reply(&resp));
  server.stop();
}

TEST(Service, QuotaShedsPerTenantWithRetryAfter) {
  const std::string socket = test_socket("quota");
  ServerConfig cfg = base_config(socket);
  cfg.tenant_rate_per_s = 1;
  cfg.tenant_burst = 2;
  Server server(cfg);
  ASSERT_TRUE(server.start()) << server.error();
  Client client(ClientConfig{socket});

  int shed = 0;
  for (std::uint64_t i = 0; i < 4; ++i) {
    Request req = verify_request(10 + i, Task::lr_sorting, 24, BodyKind::genspec_yes);
    req.tenant = 1;
    Response resp;
    ASSERT_TRUE(client.call_once(req, &resp));
    if (resp.status == ServiceStatus::quota_exceeded) {
      ++shed;
      EXPECT_GT(resp.retry_after_ms, 0u);
    } else {
      EXPECT_EQ(resp.status, ServiceStatus::ok) << resp.text;
    }
  }
  EXPECT_EQ(shed, 2) << "burst of 2, so exactly 2 of 4 rapid requests shed";

  // A different tenant has its own bucket and is unaffected.
  Request req = verify_request(20, Task::lr_sorting, 24, BodyKind::genspec_yes);
  req.tenant = 2;
  Response resp;
  ASSERT_TRUE(client.call_once(req, &resp));
  EXPECT_EQ(resp.status, ServiceStatus::ok) << resp.text;
  EXPECT_EQ(server.stats().shed_quota.load(), 2);
  server.stop();
}

TEST(Service, QueueFullShedsOverloadedTyped) {
  const std::string socket = test_socket("overload");
  ServerConfig cfg = base_config(socket);
  cfg.worker_threads = 1;
  cfg.queue_capacity = 1;
  cfg.enable_test_hooks = true;
  Server server(cfg);
  ASSERT_TRUE(server.start()) << server.error();

  // Occupy the only worker, then overfill the 1-deep queue.
  Client sleeper(ClientConfig{socket});
  std::thread holder([&] {
    Request req;
    req.type = MsgType::sleep_ms;
    req.request_id = 1;
    req.sleep_ms = 400;
    Response resp;
    sleeper.call_once(req, &resp);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Pipeline all four frames before reading any reply: the connection loop
  // admits each frame as it arrives, so with the worker held the 1-deep
  // queue must overflow (a sequential call-reply loop would never fill it).
  Client client(ClientConfig{socket});
  ASSERT_TRUE(client.connect());
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(client.send_raw(
        encode_request(verify_request(30 + i, Task::lr_sorting, 24, BodyKind::genspec_yes))));
  }
  int overloaded = 0, queued_ok = 0;
  for (std::uint64_t i = 0; i < 4; ++i) {
    Response resp;
    ASSERT_TRUE(client.read_reply(&resp));
    if (resp.status == ServiceStatus::overloaded) {
      ++overloaded;
      EXPECT_GT(resp.retry_after_ms, 0u);
    } else if (resp.status == ServiceStatus::ok) {
      ++queued_ok;
    }
  }
  EXPECT_GE(overloaded, 1) << "a 1-deep queue behind a held worker must shed";
  holder.join();
  server.stop();
}

TEST(Service, DeadlinePassedInQueueAnsweredWithoutRunning) {
  const std::string socket = test_socket("deadline");
  ServerConfig cfg = base_config(socket);
  cfg.worker_threads = 1;
  cfg.enable_test_hooks = true;
  Server server(cfg);
  ASSERT_TRUE(server.start()) << server.error();

  Client sleeper(ClientConfig{socket});
  std::thread holder([&] {
    Request req;
    req.type = MsgType::sleep_ms;
    req.request_id = 1;
    req.sleep_ms = 400;
    Response resp;
    sleeper.call_once(req, &resp);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Deadline far shorter than the worker's current occupation: by pickup
  // time the token has expired and the item must answer without executing.
  Client client(ClientConfig{socket});
  Request req = verify_request(40, Task::lr_sorting, 24, BodyKind::genspec_yes);
  req.deadline_ms = 50;
  Response resp;
  ASSERT_TRUE(client.call_once(req, &resp));
  EXPECT_EQ(resp.status, ServiceStatus::deadline_exceeded);
  EXPECT_GE(server.stats().deadline_misses.load(), 1);
  holder.join();
  server.stop();
}

TEST(Service, WatchdogReplacesWedgedWorkerAndServiceKeepsAnswering) {
  const std::string socket = test_socket("watchdog");
  ServerConfig cfg = base_config(socket);
  cfg.worker_threads = 1;
  cfg.wedge_timeout_ms = 200;
  cfg.enable_test_hooks = true;
  Server server(cfg);
  ASSERT_TRUE(server.start()) << server.error();
  const int threads_before = parallel_threads();

  // Wedge the only worker well past the watchdog budget.
  Client sleeper(ClientConfig{socket});
  std::thread wedger([&] {
    Request req;
    req.type = MsgType::sleep_ms;
    req.request_id = 1;
    req.sleep_ms = 1200;
    Response resp;
    sleeper.call_once(req, &resp);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // This request sits behind the wedge until the watchdog spawns a
  // replacement worker; it must still be answered, well before the wedge
  // itself clears.
  Client client(ClientConfig{socket});
  const auto t0 = std::chrono::steady_clock::now();
  Response resp;
  ASSERT_TRUE(client.call_once(verify_request(50, Task::lr_sorting, 24, BodyKind::genspec_yes),
                               &resp));
  const auto waited =
      std::chrono::duration_cast<std::chrono::milliseconds>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(resp.status, ServiceStatus::ok) << resp.text;
  EXPECT_LT(waited, 1100) << "the replacement worker, not the wedged one, must answer";

  EXPECT_GE(server.stats().wedged_workers.load(), 1);
  // Replacing the worker leaves the parallel engine alone: a request large
  // enough for the full-pool path still runs there and keeps digest parity.
  EXPECT_EQ(parallel_threads(), threads_before);
  const auto big_n = static_cast<std::uint32_t>(cfg.small_instance_threshold);
  const Request big = verify_request(51, Task::lr_sorting, big_n, BodyKind::genspec_yes);
  ASSERT_TRUE(client.call_once(big, &resp));
  ASSERT_EQ(resp.status, ServiceStatus::ok) << resp.text;
  Rng gen(big.gen_seed);
  const BoundInstance bi = make_yes_instance(Task::lr_sorting, static_cast<int>(big.n), gen);
  const Runtime local(Runtime::Config{{3}});
  Rng coins(big.seed);
  EXPECT_EQ(resp.outcome_digest, outcome_digest(local.run(bi.view(), coins)));
  // /statsz keeps serving from the connection thread regardless of workers.
  Request statsz;
  statsz.type = MsgType::statsz;
  statsz.request_id = 2;
  ASSERT_TRUE(client.call_once(statsz, &resp));
  EXPECT_EQ(resp.status, ServiceStatus::ok);
  EXPECT_NE(resp.text.find("\"wedged_workers\": "), std::string::npos) << resp.text;

  wedger.join();
  server.stop();
}

TEST(Service, DrainAnswersLateArrivalsShuttingDown) {
  const std::string socket = test_socket("drain");
  Server server(base_config(socket));
  ASSERT_TRUE(server.start()) << server.error();
  Client client(ClientConfig{socket});

  Response resp;
  ASSERT_TRUE(client.call_once(verify_request(60, Task::lr_sorting, 24, BodyKind::genspec_yes),
                               &resp));
  EXPECT_EQ(resp.status, ServiceStatus::ok) << resp.text;

  server.drain();
  // The existing connection stays readable during drain; new work is refused
  // with the typed drain status.
  ASSERT_TRUE(client.call_once(verify_request(61, Task::lr_sorting, 24, BodyKind::genspec_yes),
                               &resp));
  EXPECT_EQ(resp.status, ServiceStatus::shutting_down);
  EXPECT_GE(server.stats().shed_shutting_down.load(), 1);
  server.stop();
}

TEST(Service, StatszReportsLifecycleCounters) {
  const std::string socket = test_socket("statsz");
  Server server(base_config(socket));
  ASSERT_TRUE(server.start()) << server.error();
  Client client(ClientConfig{socket});

  Response resp;
  ASSERT_TRUE(client.call_once(verify_request(70, Task::planarity, 32, BodyKind::genspec_yes),
                               &resp));
  ASSERT_EQ(resp.status, ServiceStatus::ok) << resp.text;

  Request statsz;
  statsz.type = MsgType::statsz;
  statsz.request_id = 71;
  ASSERT_TRUE(client.call_once(statsz, &resp));
  ASSERT_EQ(resp.status, ServiceStatus::ok);
  for (const char* key : {"\"admitted\": 1", "\"completed_accept\": 1", "\"batches\": 1",
                          "\"queue_depth\": 0", "\"p99_us\":"}) {
    EXPECT_NE(resp.text.find(key), std::string::npos) << key << " missing in " << resp.text;
  }
  server.stop();
}

}  // namespace
}  // namespace lrdip::service
