// vsel_client: command-line client for a running vseld daemon.
//
//   vsel_client --socket=/tmp/vseld.sock --client-id=cli <command> [flags]
//
// Commands (the first non-flag argument):
//   ping                         liveness check
//   open      --store-tag=default [--time-budget-sec=N --max-states=N
//                                  --threads=N]         -> prints session id
//   update    --session=ID --queries=FILE [--remove=q1,q2] [--nowait]
//                                datalog program file; prints progress
//   poll      --session=ID       prints the in-flight update's progress
//   cancel    --session=ID       cooperative cancel, prints progress
//   fetch     --session=ID [--out=FILE] [--canonical] [--nowait]
//                                fetches the recommendation blob; with
//                                --out writes it, else prints a summary
//   subscribe --session=ID       streams progress events until terminal
//   close     --session=ID       closes the session
//   telemetry [--format=json|prom]  prints the daemon's metrics snapshot
//   shutdown                     asks the daemon to drain
//   tune      --store-tag=default --queries=FILE [--out=FILE ...]
//                                open + update(wait) + fetch + close
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"  // bench/ dir on the include path
#include "vsel/serialize/serialize.h"
#include "vseld/client.h"

namespace {

using namespace rdfviews;

std::string FirstCommand(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) return arg;
  }
  return "";
}

Result<std::vector<std::string>> ReadQueryFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open query file: " + path);
  // One datalog rule per non-empty, non-comment line (the ToString form
  // queries travel in is single-line).
  std::vector<std::string> queries;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    queries.push_back(line);
  }
  return queries;
}

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

void PrintProgress(const vsel::TuningProgress& p) {
  std::printf(
      "progress: partitions %zu/%zu (failed %zu, retries %zu), "
      "improvements %llu, best_cost %.6g, cancel=%d, done=%d\n",
      p.partitions_done, p.partitions_total, p.partitions_failed,
      p.partition_retries, static_cast<unsigned long long>(p.improvements),
      p.best_cost, p.cancel_requested ? 1 : 0, p.done ? 1 : 0);
}

int Fail(const Status& status) {
  std::fprintf(stderr, "vsel_client: %s\n", status.ToString().c_str());
  return 1;
}

int DoFetch(vseld::Client* client, uint64_t session, const bench::Flags& f) {
  Result<vseld::Client::FetchedRecommendation> fetched =
      client->FetchRecommendation(session, f.GetInt("canonical", 0) != 0,
                                  f.GetInt("nowait", 0) == 0);
  if (!fetched.ok()) return Fail(fetched.status());
  const std::string out = f.GetString("out", "");
  if (!out.empty()) {
    std::ofstream file(out, std::ios::binary);
    file.write(fetched->blob.data(),
               static_cast<std::streamsize>(fetched->blob.size()));
    if (!file) return Fail(Status::Internal("writing " + out + " failed"));
    std::printf("wrote %zu bytes to %s (store_tag=%llx config_tag=%llx)\n",
                fetched->blob.size(), out.c_str(),
                static_cast<unsigned long long>(fetched->identity.store_tag),
                static_cast<unsigned long long>(
                    fetched->identity.config_tag));
    return 0;
  }
  Result<vsel::Recommendation> rec = vsel::serialize::DeserializeRecommendation(
      fetched->blob, fetched->identity);
  if (!rec.ok()) return Fail(rec.status());
  std::printf(
      "recommendation: %zu views, best_cost %.6g, initial_cost %.6g, "
      "completed=%d (blob %zu bytes)\n",
      rec->view_definitions.size(), rec->stats.best_cost,
      rec->stats.initial_cost,
      rec->stats.completed ? 1 : 0, fetched->blob.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const std::string command = FirstCommand(argc, argv);
  if (command.empty()) {
    std::fprintf(stderr,
                 "usage: vsel_client --socket=PATH [--client-id=ID] "
                 "<ping|open|update|poll|cancel|fetch|subscribe|close|"
                 "telemetry|shutdown|tune> [flags]\n");
    return 2;
  }

  Result<vseld::Client> connected = vseld::Client::Connect(
      flags.GetString("socket", "/tmp/vseld.sock"),
      flags.GetString("client-id", "cli"));
  if (!connected.ok()) return Fail(connected.status());
  vseld::Client client = std::move(*connected);
  const uint64_t session =
      static_cast<uint64_t>(flags.GetInt("session", 0));

  vsel::TuningConfig options;
  options.limits.time_budget_sec = flags.GetDouble("time-budget-sec", 5);
  options.limits.max_states =
      static_cast<size_t>(flags.GetInt("max-states", 200000));
  options.limits.num_threads =
      static_cast<size_t>(flags.GetInt("threads", 1));

  if (command == "ping") {
    Status status = client.Ping();
    if (!status.ok()) return Fail(status);
    std::printf("pong\n");
    return 0;
  }
  if (command == "open") {
    Result<uint64_t> id =
        client.OpenSession(flags.GetString("store-tag", "default"), options);
    if (!id.ok()) return Fail(id.status());
    std::printf("session %llu\n", static_cast<unsigned long long>(*id));
    return 0;
  }
  if (command == "update") {
    Result<std::vector<std::string>> queries =
        ReadQueryFile(flags.GetString("queries", ""));
    if (!queries.ok()) return Fail(queries.status());
    Result<vsel::TuningProgress> progress = client.Update(
        session, std::move(*queries), SplitCsv(flags.GetString("remove", "")),
        flags.GetInt("nowait", 0) == 0);
    if (!progress.ok()) return Fail(progress.status());
    PrintProgress(*progress);
    return 0;
  }
  if (command == "poll" || command == "cancel") {
    Result<vsel::TuningProgress> progress = command == "poll"
                                                ? client.Poll(session)
                                                : client.Cancel(session);
    if (!progress.ok()) return Fail(progress.status());
    PrintProgress(*progress);
    return 0;
  }
  if (command == "fetch") return DoFetch(&client, session, flags);
  if (command == "subscribe") {
    Result<vsel::TuningProgress> final_progress = client.SubscribeProgress(
        session, [](const vsel::ProgressEvent& event, uint64_t dropped) {
          std::printf("event: kind=%d best_cost=%.6g partition=%zu/%zu "
                      "attempt=%zu dropped_before=%llu\n",
                      static_cast<int>(event.kind), event.best_cost,
                      event.partition, event.partitions_total, event.attempt,
                      static_cast<unsigned long long>(dropped));
        });
    if (!final_progress.ok()) return Fail(final_progress.status());
    PrintProgress(*final_progress);
    return 0;
  }
  if (command == "close") {
    Status status = client.CloseSession(session);
    if (!status.ok()) return Fail(status);
    std::printf("closed session %llu\n",
                static_cast<unsigned long long>(session));
    return 0;
  }
  if (command == "telemetry") {
    Result<std::string> text = client.Telemetry(
        flags.GetString("format", "json") == "prom"
            ? vseld::TelemetryFormat::kPrometheus
            : vseld::TelemetryFormat::kJson);
    if (!text.ok()) return Fail(text.status());
    std::printf("%s\n", text->c_str());
    return 0;
  }
  if (command == "shutdown") {
    Status status = client.Shutdown();
    if (!status.ok()) return Fail(status);
    std::printf("drain requested\n");
    return 0;
  }
  if (command == "tune") {
    Result<std::vector<std::string>> queries =
        ReadQueryFile(flags.GetString("queries", ""));
    if (!queries.ok()) return Fail(queries.status());
    Result<uint64_t> id =
        client.OpenSession(flags.GetString("store-tag", "default"), options);
    if (!id.ok()) return Fail(id.status());
    Result<vsel::TuningProgress> progress =
        client.Update(*id, std::move(*queries), {}, /*wait=*/true);
    if (!progress.ok()) return Fail(progress.status());
    PrintProgress(*progress);
    int rc = DoFetch(&client, *id, flags);
    Status closed = client.CloseSession(*id);
    if (rc == 0 && !closed.ok()) return Fail(closed);
    return rc;
  }
  std::fprintf(stderr, "vsel_client: unknown command '%s'\n",
               command.c_str());
  return 2;
}
