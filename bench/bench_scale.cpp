// Experiment E-SCALE: sharded generation + streaming verification at scale.
//
// Sweeps shard counts over one fixed (family, n, seed, coin-seed) instance
// and records, per shard count: the transcript digest (which must be
// bit-identical across ALL shard counts — the correctness claim of the
// sharded substrate), wall time, on-disk bytes, and the peak resident set of
// each phase. n defaults to 2^20 (the CI smoke size); the headline run uses
// --log-n 27 (EXPERIMENTS.md section E-SCALE).
//
// Residency is measured honestly: VmHWM is monotone per process, so every
// cell (generate, then verify) runs in its own forked child and the parent
// reads ru_maxrss from wait4(2). The digest travels back over a pipe. This
// is the same quantity the CI gate measures around the CLI with
// /usr/bin/time -v, so budgets transfer.
//
//   bench_scale [--log-n K] [--shards k1,k2,...] [--seed S] [--coin-seed S]
//               [--family path-outerplanar|grid] [--dir D] [--json out.json]
//               [--keep]
//
// Shard directories live under --dir (default: a fresh directory under
// $TMPDIR) and are deleted per cell unless --keep. Exit: 0 iff every cell
// accepted and all digests agree.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench_util.hpp"
#include "dip/runtime.hpp"
#include "gen/shard_gen.hpp"
#include "obs/metrics.hpp"

using namespace lrdip;
using lrdip::bench::number_or_exit;

namespace {

struct Cell {
  std::uint32_t shards = 0;
  bool accepted = false;
  std::uint64_t digest = 0;
  std::uint64_t halves = 0;
  std::uint64_t max_stack_depth = 0;
  std::uint64_t bytes = 0;
  double gen_wall_s = 0.0;
  double verify_wall_s = 0.0;
  long gen_peak_rss_kb = 0;
  long verify_peak_rss_kb = 0;
};

double wall_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Runs `body` in a forked child; returns the child's peak RSS (ru_maxrss,
/// KiB on Linux) and stores its exit status. `body` must communicate results
/// through the filesystem or the provided pipe — it runs in another process.
template <typename Fn>
long run_in_child(Fn&& body, int* exit_status) {
  std::fflush(nullptr);  // the child inherits stdio buffers; don't re-flush ours
  std::cout.flush();
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    std::exit(3);
  }
  if (pid == 0) {
    int code = 0;
    try {
      code = body();
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "child: %s\n", ex.what());
      code = 3;
    }
    std::fflush(nullptr);
    _exit(code);
  }
  int status = 0;
  struct rusage ru{};
  if (wait4(pid, &status, 0, &ru) < 0) {
    std::perror("wait4");
    std::exit(3);
  }
  *exit_status = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
  return ru.ru_maxrss;
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

Cell run_cell(const ShardParams& params, std::uint32_t shards, std::uint64_t coin_seed,
              const std::string& dir, bool keep) {
  Cell cell;
  cell.shards = shards;

  int status = 0;
  const std::int64_t gen_start = obs::now_ns();
  cell.gen_peak_rss_kb = run_in_child(
      [&]() {
        emit_shards(params, shards, dir);
        return 0;
      },
      &status);
  cell.gen_wall_s = wall_s(obs::now_ns() - gen_start);
  if (status != 0) {
    std::cerr << "generation failed (shards=" << shards << ", exit " << status << ")\n";
    std::exit(3);
  }
  cell.bytes = dir_bytes(dir);

  // The verify child reports through a pipe: one line of space-separated
  // fields (accepted digest halves max_stack_depth).
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("pipe");
    std::exit(3);
  }
  const std::int64_t verify_start = obs::now_ns();
  cell.verify_peak_rss_kb = run_in_child(
      [&]() {
        close(fds[0]);
        const Runtime rt;
        ShardRunOptions opt;
        opt.verify.coin_seed = coin_seed;
        const ShardRunReport rep = rt.run_sharded(dir + "/manifest.json", opt);
        char line[128];
        const int len = std::snprintf(line, sizeof line, "%d %llu %llu %llu\n",
                                      rep.outcome.accepted ? 1 : 0,
                                      static_cast<unsigned long long>(rep.digest),
                                      static_cast<unsigned long long>(rep.halves),
                                      static_cast<unsigned long long>(rep.max_stack_depth));
        if (write(fds[1], line, static_cast<std::size_t>(len)) != len) return 3;
        close(fds[1]);
        return rep.outcome.accepted ? 0 : 1;
      },
      &status);
  cell.verify_wall_s = wall_s(obs::now_ns() - verify_start);
  close(fds[1]);
  {
    char buf[128] = {};
    ssize_t got = 0, r = 0;
    while ((r = read(fds[0], buf + got, sizeof buf - 1 - static_cast<std::size_t>(got))) > 0) {
      got += r;
    }
    close(fds[0]);
    unsigned long long acc = 0, dig = 0, hv = 0, sd = 0;
    if (std::sscanf(buf, "%llu %llu %llu %llu", &acc, &dig, &hv, &sd) != 4) {
      std::cerr << "verify child reported nothing (shards=" << shards << ", exit " << status
                << ")\n";
      std::exit(3);
    }
    cell.accepted = acc != 0;
    cell.digest = dig;
    cell.halves = hv;
    cell.max_stack_depth = sd;
  }

  if (!keep) std::filesystem::remove_all(dir);
  return cell;
}

constexpr const char* kUsage =
    "usage: bench_scale [--log-n K] [--shards k1,k2,...] [--seed S] [--coin-seed S]"
    " [--family path-outerplanar|grid] [--dir D] [--json out.json] [--keep]\n";

}  // namespace

int main(int argc, char** argv) {
  int log_n = 20;
  std::vector<std::uint32_t> shard_counts = {1, 4, 16};
  ShardParams params;
  params.seed = 7;
  std::uint64_t coin_seed = 42;
  std::string family = "path-outerplanar";
  std::string base_dir, json_path;
  bool keep = false;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << a << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--log-n") {
      log_n = number_or_exit<int>(next(), kUsage);
    } else if (a == "--shards") {
      shard_counts.clear();
      std::stringstream ss(next());
      std::string tok;
      while (std::getline(ss, tok, ',')) {
        shard_counts.push_back(number_or_exit<std::uint32_t>(tok, kUsage));
      }
    } else if (a == "--seed") {
      params.seed = number_or_exit<std::uint64_t>(next(), kUsage);
    } else if (a == "--coin-seed") {
      coin_seed = number_or_exit<std::uint64_t>(next(), kUsage);
    } else if (a == "--family") {
      family = next();
    } else if (a == "--dir") {
      base_dir = next();
    } else if (a == "--json") {
      json_path = next();
    } else if (a == "--keep") {
      keep = true;
    } else {
      std::cerr << kUsage;
      return 2;
    }
  }
  const auto fam = shard_family_from_name(family);
  if (!fam.has_value() || log_n < 4 || log_n > 28 || shard_counts.empty()) {
    std::cerr << "bad arguments (family " << family << ", log-n " << log_n << ")\n";
    return 2;
  }
  params.family = *fam;
  params.n = std::uint64_t{1} << log_n;

  if (base_dir.empty()) {
    const char* tmp = std::getenv("TMPDIR");
    std::string tmpl = std::string(tmp != nullptr ? tmp : "/tmp") + "/lrdip-scale-XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (mkdtemp(buf.data()) == nullptr) {
      std::perror("mkdtemp");
      return 3;
    }
    base_dir = buf.data();
  } else {
    std::filesystem::create_directories(base_dir);
  }

  std::cout << "\n=== E-SCALE: sharded substrate, " << family << " n=2^" << log_n
            << " seed=" << params.seed << " coin-seed=" << coin_seed << " ===\n"
            << "digest must be bit-identical across shard counts; RSS is per-phase peak\n\n";
  std::cout << "shards |  gen s | gen RSS MiB | verify s | verify RSS MiB |   disk MiB | digest\n";
  std::cout << "-------+--------+-------------+----------+----------------+------------+-------\n";

  std::vector<Cell> cells;
  for (const std::uint32_t k : shard_counts) {
    const std::string dir = base_dir + "/k" + std::to_string(k);
    const Cell c = run_cell(params, k, coin_seed, dir, keep);
    std::printf("%6u | %6.1f | %11.1f | %8.1f | %14.1f | %10.1f | %s%s\n", c.shards, c.gen_wall_s,
                static_cast<double>(c.gen_peak_rss_kb) / 1024.0, c.verify_wall_s,
                static_cast<double>(c.verify_peak_rss_kb) / 1024.0,
                static_cast<double>(c.bytes) / (1024.0 * 1024.0), hex64(c.digest).c_str(),
                c.accepted ? "" : "  REJECTED");
    cells.push_back(c);
  }

  bool all_accepted = true, digests_identical = true;
  for (const Cell& c : cells) {
    all_accepted = all_accepted && c.accepted;
    digests_identical = digests_identical && c.digest == cells.front().digest;
  }
  std::cout << "\ndigests identical: " << (digests_identical ? "yes" : "NO") << ", accepted "
            << (all_accepted ? "all" : "NOT all") << "\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"experiment\": \"E-SCALE\",\n";
    out << "  \"family\": \"" << family << "\",\n";
    out << "  \"log_n\": " << log_n << ",\n  \"n\": " << params.n << ",\n";
    out << "  \"seed\": " << params.seed << ",\n  \"coin_seed\": " << coin_seed << ",\n";
    out << "  \"digests_identical\": " << (digests_identical ? "true" : "false") << ",\n";
    out << "  \"rows\": [\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      out << "    {\"shards\": " << c.shards << ", \"accepted\": "
          << (c.accepted ? "true" : "false") << ", \"digest\": \"" << hex64(c.digest)
          << "\", \"halves\": " << c.halves << ", \"max_stack_depth\": " << c.max_stack_depth
          << ", \"bytes\": " << c.bytes << ", \"gen_wall_s\": " << c.gen_wall_s
          << ", \"gen_peak_rss_kb\": " << c.gen_peak_rss_kb
          << ", \"verify_wall_s\": " << c.verify_wall_s
          << ", \"verify_peak_rss_kb\": " << c.verify_peak_rss_kb << "}"
          << (i + 1 < cells.size() ? ",\n" : "\n");
    }
    out << "  ]\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }
  if (!keep) std::filesystem::remove_all(base_dir);
  return all_accepted && digests_identical ? 0 : 1;
}
