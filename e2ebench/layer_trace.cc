/**
 * @file
 * layer_trace: the benchmark's traced twin of `diablo_run memcached` and
 * `diablo_run incast`.
 *
 * It builds the same scenario from the same key=value overrides, then
 * records a span around each call into a layer's public API: the
 * Cluster / McExperiment constructor (sim.build), IncastApp::install
 * or McExperiment's client install (apps.install), every engine window
 * (fame.window: one runSequential/runParallel call for incast, or the
 * leader's publish + runCoupled call when coupled, one McExperiment
 * pulse interval for memcached), the latency digests and
 * fingerprint fold (analysis.fold) and the destructors (sim.teardown).
 * After the run it reads every layer counter through its public
 * accessor.  Spans live in memory and are written out, with the
 * counters and the simulated results, as one JSON document on stdout:
 *
 *   layer_trace memcached [--engine single|seq|par] [--threads N] k=v...
 *   layer_trace incast --engine seq|par [--threads N] k=v...
 *   layer_trace incast --engine seq --processes N --shm <path> k=v...
 *
 * With --processes, this process is rank 0 of a coupled group, as in
 * `diablo_run --processes N`: the other ranks are forked from it, build
 * their own model and follow its windows over a shared segment created
 * at <path> (unlinked at once).  The spans time rank 0; the counters are
 * summed over the ranks.
 *
 * The simulated results must equal the untraced diablo_run's; run.py
 * checks that they do.  Exit code 2 on a usage error, 1 when incast
 * does not complete.
 */

#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "analysis/artifact.hh"
#include "analysis/json_writer.hh"
#include "apps/incast.hh"
#include "apps/mc_experiment.hh"
#include "core/config.hh"
#include "core/shm.hh"
#include "fame/partition.hh"
#include "fame/transport.hh"
#include "sim/cluster.hh"

using namespace diablo;

namespace {

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** In-memory span log: name, parent span, start and end (steady ns). */
class Tracer {
  public:
    struct Span {
        const char *name;
        int parent;
        int64_t start_ns;
        int64_t end_ns;
    };

    int
    open(const char *name, int parent)
    {
        spans_.push_back(Span{name, parent, nowNs(), 0});
        return static_cast<int>(spans_.size()) - 1;
    }

    void close(int id) { spans_[id].end_ns = nowNs(); }

    void
    write(analysis::JsonWriter &w) const
    {
        w.beginArray("spans");
        for (const Span &s : spans_) {
            w.beginObject();
            w.field("name", s.name);
            w.field("parent", s.parent);
            w.field("start_ns", s.start_ns);
            w.field("end_ns", s.end_ns);
            w.endObject();
        }
        w.endArray();
    }

  private:
    std::vector<Span> spans_;
};

enum class Engine { Single, Seq, Par };

/** Layer counters that add up across the ranks of a coupled run. */
enum Counter {
    kScheduled,
    kMaterialized,
    kArenaBytes,
    kPoolMakes,
    kPoolHeapAllocs,
    kDeliveryTrains,
    kDeliveriesCoalesced,
    kForwarded,
    kSwitchDrops,
    kNicRxDrops,
    kNicTxRingDrops,
    kTcpRetransmits,
    kTcpRtos,
    kUdpSocketDrops,
    kNumCounters
};

const char *const kCounterNames[kNumCounters] = {
    "core.events_scheduled", "sim.materialized_nodes",
    "sim.arena_bytes",       "net.pool_makes",
    "net.pool_heap_allocs",  "net.delivery_trains",
    "net.deliveries_coalesced", "switchm.forwarded",
    "switchm.drops",         "nic.rx_drops",
    "nic.tx_ring_drops",     "os.tcp_retransmits",
    "os.tcp_rtos",           "os.udp_socket_drops",
};

/** One process's layer counters, read after the run, before teardown. */
struct LayerCounters {
    std::array<uint64_t, kNumCounters> c{};
    /** Executed events per partition (a single entry without one). */
    std::vector<uint64_t> part_events;

    /** Fold in another rank's counters: a partition runs in one rank. */
    void
    add(const LayerCounters &o)
    {
        for (int i = 0; i < kNumCounters; ++i) {
            c[i] += o.c[i];
        }
        for (size_t i = 0; i < part_events.size(); ++i) {
            part_events[i] += o.part_events[i];
        }
    }
};

LayerCounters
collectCounters(sim::Cluster &cluster, fame::PartitionSet *ps,
                Simulator *single)
{
    LayerCounters lc;
    if (ps != nullptr) {
        for (size_t i = 0; i < ps->size(); ++i) {
            lc.part_events.push_back(ps->partition(i).executedEvents());
            lc.c[kScheduled] += ps->partition(i).scheduledEvents();
        }
    } else {
        lc.part_events.push_back(single->executedEvents());
        lc.c[kScheduled] = single->scheduledEvents();
    }
    for (const auto &a : cluster.arenaStats()) {
        lc.c[kArenaBytes] += a.bytes_used;
    }
    for (const auto &p : cluster.poolStats()) {
        lc.c[kPoolMakes] += p.makes;
        lc.c[kPoolHeapAllocs] += p.heap_allocs;
    }
    lc.c[kMaterialized] = cluster.materializedServers();
    lc.c[kDeliveryTrains] = cluster.totalDeliveryTrains();
    lc.c[kDeliveriesCoalesced] = cluster.totalDeliveriesCoalesced();
    lc.c[kForwarded] = cluster.network().totalForwarded();
    lc.c[kSwitchDrops] = cluster.network().totalSwitchDrops();
    lc.c[kNicRxDrops] = cluster.totalNicRxDrops();
    lc.c[kNicTxRingDrops] = cluster.totalNicTxRingDrops();
    lc.c[kTcpRetransmits] = cluster.totalTcpRetransmits();
    lc.c[kTcpRtos] = cluster.totalTcpRtos();
    lc.c[kUdpSocketDrops] = cluster.totalUdpSocketDrops();
    return lc;
}

void
writeCounters(analysis::JsonWriter &w, const LayerCounters &lc,
              uint64_t quanta, uint64_t workers)
{
    uint64_t events = 0, active = 0, max_part = 0;
    for (uint64_t e : lc.part_events) {
        events += e;
        active += e != 0 ? 1 : 0;
        max_part = e > max_part ? e : max_part;
    }
    w.beginObject("counters");
    w.field("core.events", events);
    w.field("fame.partitions",
            static_cast<uint64_t>(lc.part_events.size()));
    w.field("fame.active_partitions", active);
    w.field("fame.max_partition_events", max_part);
    w.field("fame.quanta", quanta);
    w.field("fame.workers", workers);
    for (int i = 0; i < kNumCounters; ++i) {
        w.field(kCounterNames[i], lc.c[i]);
    }
    w.endObject();
}

/** Same parameter reading as diablo_run's runMemcached. */
apps::McExperimentParams
memcachedParams(const Config &cfg)
{
    apps::McExperimentParams p;
    p.cluster = cfg.getDouble("topo.rack.port_gbps", 1.0) > 5
                    ? sim::ClusterParams::tengig100ns()
                    : sim::ClusterParams::gige1us();
    p.cluster.applyConfig(cfg);
    p.num_servers = static_cast<uint32_t>(
        cfg.getUint("mc.servers",
                    2 * p.cluster.topo.racks_per_array *
                        p.cluster.topo.num_arrays));
    p.num_clients = static_cast<uint32_t>(cfg.getUint("mc.clients", 0));
    p.sketch_stats = cfg.getBool("stats.sketch", false);
    p.server.udp = cfg.getBool("mc.udp", true);
    p.server.version = static_cast<int>(cfg.getUint("mc.version", 1417));
    p.server.worker_threads =
        static_cast<uint32_t>(cfg.getUint("mc.workers", 4));
    p.client.udp = p.server.udp;
    p.client.requests =
        static_cast<uint32_t>(cfg.getUint("mc.requests", 200));
    p.client.think_mean =
        SimTime::microseconds(cfg.getDouble("mc.think_us", 1500.0));
    return p;
}

int
traceMemcached(const Config &cfg, Engine engine, size_t threads,
               Tracer &tr, analysis::JsonWriter &w)
{
    const apps::McExperimentParams p = memcachedParams(cfg);
    const int root = tr.open("run", -1);

    int span = tr.open("sim.build", root);
    std::unique_ptr<Simulator> sim;
    std::unique_ptr<fame::PartitionSet> ps;
    std::unique_ptr<apps::McExperiment> exp;
    if (engine == Engine::Single) {
        sim = std::make_unique<Simulator>();
        exp = std::make_unique<apps::McExperiment>(*sim, p);
    } else {
        ps = std::make_unique<fame::PartitionSet>(
            sim::Cluster::partitionsRequired(p.cluster));
        ps->setParallelism(threads);
        exp = std::make_unique<apps::McExperiment>(*ps, p);
    }
    tr.close(span);

    // run() installs the clients, then calls the pulse before every
    // window (sharded) or every 4096 events (single): the time to the
    // first pulse is the install, each pulse-to-pulse interval a window.
    span = tr.open("apps.install", root);
    uint64_t windows = 0;
    exp->setPulse([&] {
        tr.close(span);
        span = tr.open("fame.window", root);
        ++windows;
        return false;
    });
    exp->run(engine == Engine::Par);
    tr.close(span);
    const apps::McExperimentResult &r = exp->result();

    span = tr.open("analysis.fold", root);
    analysis::RunArtifact a;
    a.workload = "memcached";
    a.elapsed_us = r.elapsed.asMicros();
    a.requests_completed = r.requests_completed;
    const char *hops[3] = {"local", "1-hop", "2-hop"};
    a.latencies.emplace_back("latency_us",
                             analysis::LatencyDigest::of(r.latency_us));
    for (int h = 0; h < 3; ++h) {
        a.latencies.emplace_back(
            std::string("latency_us.") + hops[h],
            analysis::LatencyDigest::of(r.latency_us_by_hop[h]));
    }
    a.latencies.emplace_back(
        "first_request_us",
        analysis::LatencyDigest::of(r.first_request_us));
    a.fingerprint();
    tr.close(span);

    w.beginObject("results");
    w.field("elapsed_us", a.elapsed_us);
    w.field("apps.requests", r.requests_completed);
    w.field("apps.udp_retries", r.udp_retries);
    w.field("apps.udp_lost", r.udp_timeouts);
    w.field("apps.sim_p99_us", a.latencies.front().second.p99);
    w.field("fame.windows", windows);
    w.fieldHex("latency_fingerprint",
               a.latencies.front().second.fingerprint);
    w.endObject();
    writeCounters(w, collectCounters(exp->cluster(), ps.get(), sim.get()),
                  ps != nullptr ? ps->quantaExecuted() : 0,
                  engine == Engine::Par ? ps->lastRunWorkers() : 1);

    span = tr.open("sim.teardown", root);
    exp.reset();
    ps.reset();
    sim.reset();
    tr.close(span);
    tr.close(root);
    return 0;
}

/** Same scenario as diablo_run's makeIncastSetup. */
struct IncastScenario {
    sim::ClusterParams cp;
    apps::IncastParams ip;
    std::vector<net::NodeId> servers;

    explicit IncastScenario(const Config &cfg)
    {
        const uint32_t n =
            static_cast<uint32_t>(cfg.getUint("incast.servers", 8));
        const uint32_t racks =
            static_cast<uint32_t>(cfg.getUint("incast.racks", 1));
        cp = cfg.getDouble("topo.rack.port_gbps", 1.0) > 5
                 ? sim::ClusterParams::tengig100ns()
                 : sim::ClusterParams::gige1us();
        cp.applyConfig(cfg);
        cp.topo.servers_per_rack = (n + 1 + racks - 1) / racks;
        cp.topo.racks_per_array = racks;
        cp.topo.num_arrays = 1;
        ip.block_bytes = cfg.getUint("incast.block_bytes", 256 * 1024);
        ip.iterations =
            static_cast<uint32_t>(cfg.getUint("incast.iterations", 20));
        ip.use_epoll = cfg.getBool("incast.epoll", false);
        for (uint32_t i = 1; i <= n; ++i) {
            servers.push_back(i);
        }
    }
};

/**
 * The process group of a coupled run, as diablo_run --processes sets
 * it up: one shared segment of rings, rank 0 in this process and the
 * other ranks forked from it.  Each rank builds its own model.
 */
struct ProcessGroup {
    fame::ShmGroupLayout layout;
    ShmSegment seg;
    std::vector<pid_t> pids;
    std::vector<int> fds; ///< read end of each rank's counter pipe

    ProcessGroup(uint32_t nprocs, const std::string &path)
        : layout{nprocs}, seg(ShmSegment::create(path, layout.totalBytes()))
    {
        // The forked ranks inherit the mapping; the name is not needed.
        seg.unlinkFile();
        fame::initGroupSegment(seg.data(), layout);
    }

    fame::ShmGroupControl *
    control()
    {
        return fame::groupControl(seg.data(), layout);
    }

    /** Give the rank's partitions to this process, peers over the rings. */
    void
    couple(sim::Cluster &cluster, fame::PartitionSet &ps, uint32_t rank,
           std::vector<std::unique_ptr<fame::Transport>> &transports)
    {
        fame::PartitionSet::CoupledOptions copts;
        copts.self_rank = rank;
        copts.owner_of = fame::PartitionSet::lptAssign(
            ps.partitionWeights(), layout.nprocs);
        for (uint32_t r = 0; r < layout.nprocs; ++r) {
            if (r != rank) {
                transports.push_back(
                    fame::groupTransport(seg.data(), layout, rank, r));
                copts.peers.emplace_back(r, transports.back().get());
            }
        }
        cluster.enableProcessCoupling(copts);
    }
};

bool
writeAll(int fd, const void *p, size_t n)
{
    const char *b = static_cast<const char *>(p);
    while (n > 0) {
        const ssize_t k = write(fd, b, n);
        if (k < 0 && errno == EINTR) {
            continue;
        }
        if (k <= 0) {
            return false;
        }
        b += k;
        n -= static_cast<size_t>(k);
    }
    return true;
}

bool
readAll(int fd, void *p, size_t n)
{
    char *b = static_cast<char *>(p);
    while (n > 0) {
        const ssize_t k = read(fd, b, n);
        if (k < 0 && errno == EINTR) {
            continue;
        }
        if (k <= 0) {
            return false; // EOF: the rank died before reporting
        }
        b += k;
        n -= static_cast<size_t>(k);
    }
    return true;
}

/**
 * A forked rank other than 0: build the model, follow the leader's
 * windows with runCoupled until it stops the group, then send the
 * rank's counters over @p fd.  Returns the process exit code.
 */
int
followIncast(const IncastScenario &sc, ProcessGroup &g, uint32_t rank,
             int fd)
{
    fame::PartitionSet ps(sim::Cluster::partitionsRequired(sc.cp));
    sim::Cluster cluster(ps, sc.cp);
    apps::IncastApp app(cluster, sc.ip, 0, sc.servers);
    app.install();
    std::vector<std::unique_ptr<fame::Transport>> transports;
    g.couple(cluster, ps, rank, transports);

    fame::ShmGroupControl *ctl = g.control();
    // A leader silent this long is gone (diablo_run's budget).
    constexpr int64_t kSliceNs = 200LL * 1000 * 1000;
    constexpr int kSilentSlices = 600;
    uint32_t epoch = 0;
    int silent = 0;
    for (;;) {
        const uint32_t e = ctl->waitEpoch(epoch, kSliceNs);
        if (e == epoch) {
            if (++silent == kSilentSlices) {
                std::fprintf(stderr, "rank %u: leader silent\n", rank);
                return 1;
            }
            continue;
        }
        epoch = e;
        silent = 0;
        if (ctl->command.load() != fame::ShmGroupControl::kRun) {
            break;
        }
        if (!ps.runCoupled(SimTime::ps(ctl->until_ps.load()))) {
            return 1;
        }
    }
    const LayerCounters lc = collectCounters(cluster, &ps, nullptr);
    const bool sent =
        writeAll(fd, lc.c.data(), sizeof(lc.c)) &&
        writeAll(fd, lc.part_events.data(),
                 lc.part_events.size() * sizeof(uint64_t));
    return sent ? 0 : 1;
}

/**
 * diablo_run's sharded incast: seq or par in this process, or, with
 * @p procs > 1, rank 0 of a coupled group whose ranks are forked here.
 */
int
traceIncast(const Config &cfg, Engine engine, size_t threads,
            uint32_t procs, const std::string &shm_path, Tracer &tr,
            analysis::JsonWriter &w)
{
    const IncastScenario sc(cfg);
    const size_t nparts = sim::Cluster::partitionsRequired(sc.cp);
    std::unique_ptr<ProcessGroup> group;
    if (procs > 1) {
        if (procs > nparts || engine != Engine::Seq || shm_path.empty()) {
            std::fprintf(stderr, "--processes needs --engine seq, --shm "
                                 "and at most %zu processes\n",
                         nparts);
            return 2;
        }
        group = std::make_unique<ProcessGroup>(procs, shm_path);
        std::fflush(nullptr);
        for (uint32_t r = 1; r < procs; ++r) {
            int pfd[2];
            if (pipe(pfd) != 0) {
                std::perror("pipe");
                return 1;
            }
            const pid_t pid = fork();
            if (pid < 0) {
                std::perror("fork");
                return 1;
            }
            if (pid == 0) {
                close(pfd[0]);
                _exit(followIncast(sc, *group, r, pfd[1]));
            }
            close(pfd[1]);
            group->pids.push_back(pid);
            group->fds.push_back(pfd[0]);
        }
    }

    const int root = tr.open("run", -1);
    int span = tr.open("sim.build", root);
    auto ps = std::make_unique<fame::PartitionSet>(nparts);
    ps->setParallelism(threads);
    auto cluster = std::make_unique<sim::Cluster>(*ps, sc.cp);
    tr.close(span);

    span = tr.open("apps.install", root);
    auto app =
        std::make_unique<apps::IncastApp>(*cluster, sc.ip, 0, sc.servers);
    app->install();
    tr.close(span);

    std::vector<std::unique_ptr<fame::Transport>> transports;
    if (group != nullptr) {
        group->couple(*cluster, *ps, 0, transports);
    }

    // diablo_run's sharded drive loop: 250 ms windows up to a 60 s cap.
    // A coupled window is the leader's publish plus its runCoupled call.
    SimTime t;
    uint64_t windows = 0;
    bool coupled_ok = true;
    while (!app->result().done && t < SimTime::sec(60)) {
        t = t + SimTime::ms(250);
        span = tr.open("fame.window", root);
        if (group != nullptr) {
            group->control()->publish(fame::ShmGroupControl::kRun,
                                      t.toPs());
            coupled_ok = ps->runCoupled(t);
        } else if (engine == Engine::Par) {
            ps->runParallel(t);
        } else {
            ps->runSequential(t);
        }
        tr.close(span);
        ++windows;
        if (!coupled_ok) {
            break;
        }
    }

    LayerCounters lc = collectCounters(*cluster, ps.get(), nullptr);
    bool ranks_ok = true;
    if (group != nullptr) {
        group->control()->publish(fame::ShmGroupControl::kStop, t.toPs());
        for (size_t i = 0; i < group->pids.size(); ++i) {
            LayerCounters rank;
            rank.part_events.resize(lc.part_events.size());
            const bool have =
                readAll(group->fds[i], rank.c.data(), sizeof(rank.c)) &&
                readAll(group->fds[i], rank.part_events.data(),
                        rank.part_events.size() * sizeof(uint64_t));
            close(group->fds[i]);
            int status = 0;
            waitpid(group->pids[i], &status, 0);
            if (!have || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
                std::fprintf(stderr, "rank %zu failed (status %d)\n",
                             i + 1, status);
                ranks_ok = false;
                continue;
            }
            lc.add(rank);
        }
    }
    if (!coupled_ok || !ranks_ok) {
        std::fprintf(stderr, "coupled run failed\n");
        return 1;
    }
    if (!app->result().done) {
        std::fprintf(stderr, "incast did not complete\n");
        return 1;
    }
    const apps::IncastResult &r = app->result();

    span = tr.open("analysis.fold", root);
    analysis::RunArtifact a;
    a.workload = "incast";
    a.elapsed_us = r.elapsed.asMicros();
    a.requests_completed = r.iteration_us.count();
    a.latencies.emplace_back("iteration_us",
                             analysis::LatencyDigest::of(r.iteration_us));
    a.fingerprint();
    tr.close(span);

    w.beginObject("results");
    w.field("elapsed_us", a.elapsed_us);
    w.field("apps.requests", a.requests_completed);
    w.field("apps.udp_retries", uint64_t{0});
    w.field("apps.udp_lost", uint64_t{0});
    w.field("apps.sim_p99_us", a.latencies.front().second.p99);
    w.field("fame.windows", windows);
    w.fieldHex("latency_fingerprint",
               a.latencies.front().second.fingerprint);
    w.endObject();
    writeCounters(w, lc, ps->quantaExecuted(),
                  group != nullptr            ? procs
                  : engine == Engine::Par ? ps->lastRunWorkers()
                                          : 1);

    span = tr.open("sim.teardown", root);
    app.reset();
    cluster.reset();
    ps.reset();
    tr.close(span);
    tr.close(root);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2 || (std::strcmp(argv[1], "memcached") != 0 &&
                     std::strcmp(argv[1], "incast") != 0)) {
        std::fprintf(stderr,
                     "usage: %s <memcached|incast> [--engine "
                     "<single|seq|par>] [--threads <N>] [--processes <N> "
                     "--shm <path>] [key=value ...]\n",
                     argv[0]);
        return 2;
    }
    const bool incast = std::strcmp(argv[1], "incast") == 0;
    Engine engine = Engine::Single;
    size_t threads = 0;
    uint32_t procs = 1;
    std::string shm_path;
    Config cfg;
    for (int i = 2; i < argc; ++i) {
        const bool has_value = i + 1 < argc;
        if (std::strcmp(argv[i], "--engine") == 0 && has_value) {
            const char *v = argv[++i];
            if (std::strcmp(v, "single") == 0) {
                engine = Engine::Single;
            } else if (std::strcmp(v, "seq") == 0) {
                engine = Engine::Seq;
            } else if (std::strcmp(v, "par") == 0) {
                engine = Engine::Par;
            } else {
                std::fprintf(stderr, "unknown engine '%s'\n", v);
                return 2;
            }
        } else if (std::strcmp(argv[i], "--threads") == 0 && has_value) {
            threads = std::strtoul(argv[++i], nullptr, 10);
        } else if (std::strcmp(argv[i], "--processes") == 0 && has_value) {
            procs = static_cast<uint32_t>(std::strtoul(argv[++i], nullptr,
                                                       10));
        } else if (std::strcmp(argv[i], "--shm") == 0 && has_value) {
            shm_path = argv[++i];
        } else if (!cfg.parseAssignment(argv[i])) {
            std::fprintf(stderr, "not a key=value assignment: '%s'\n",
                         argv[i]);
            return 2;
        }
    }
    if (incast && engine == Engine::Single) {
        std::fprintf(stderr, "incast is traced on seq or par only\n");
        return 2;
    }
    if (!incast && procs > 1) {
        std::fprintf(stderr, "--processes supports only incast\n");
        return 2;
    }

    Tracer tr;
    analysis::JsonWriter w(/*pretty=*/false);
    w.beginObject();
    const int rc = incast ? traceIncast(cfg, engine, threads, procs,
                                        shm_path, tr, w)
                          : traceMemcached(cfg, engine, threads, tr, w);
    if (rc != 0) {
        return rc;
    }
    tr.write(w);
    w.endObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
}
