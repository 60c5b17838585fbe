#include "vmpi/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>

#include "common/error.hpp"
#include "linalg/thread_pool.hpp"
#include "vmpi/comm.hpp"

namespace hprs::vmpi {
namespace {

/// Uniform test platform: n processors with cycle-time w on one segment
/// with `link` ms/megabit.
simnet::Platform uniform_platform(std::size_t n, double w = 0.001,
                                  double link = 10.0) {
  std::vector<simnet::ProcessorSpec> procs;
  for (std::size_t i = 0; i < n; ++i) {
    procs.push_back(
        simnet::ProcessorSpec{"p" + std::to_string(i), "test", w, 1024, 512, 0});
  }
  return simnet::Platform("uniform-test", std::move(procs), {{link}});
}

Options zero_latency() {
  Options o;
  o.per_message_latency_s = 0.0;
  o.deadlock_timeout_s = 5.0;
  return o;
}

TEST(EngineTest, ComputeChargesFlopsTimesCycleTime) {
  Engine engine(uniform_platform(2, 0.004), zero_latency());
  const auto report = engine.run([](Comm& comm) {
    if (comm.rank() == 0) comm.compute(1'000'000);  // 1 Mflop
  });
  EXPECT_DOUBLE_EQ(report.ranks[0].clock, 0.004);
  EXPECT_DOUBLE_EQ(report.ranks[1].clock, 0.0);
  EXPECT_DOUBLE_EQ(report.total_time, 0.004);
  EXPECT_EQ(report.ranks[0].flops, 1'000'000u);
}

TEST(EngineTest, HeterogeneousCycleTimesDiffer) {
  std::vector<simnet::ProcessorSpec> procs = {
      {"fast", "t", 0.001, 1024, 512, 0},
      {"slow", "t", 0.010, 1024, 512, 0},
  };
  Engine engine(simnet::Platform("het", std::move(procs), {{10.0}}),
                zero_latency());
  const auto report = engine.run([](Comm& comm) { comm.compute(2'000'000); });
  EXPECT_DOUBLE_EQ(report.ranks[0].clock, 0.002);
  EXPECT_DOUBLE_EQ(report.ranks[1].clock, 0.020);
  EXPECT_DOUBLE_EQ(report.total_time, 0.020);
}

TEST(EngineTest, SequentialPhaseGoesToSeqBucket) {
  Engine engine(uniform_platform(2, 0.001), zero_latency());
  const auto report = engine.run([](Comm& comm) {
    if (comm.is_root()) {
      comm.compute(1'000'000, Phase::kSequential);
      comm.compute(3'000'000, Phase::kParallel);
    }
  });
  EXPECT_DOUBLE_EQ(report.ranks[0].compute_seq, 0.001);
  EXPECT_DOUBLE_EQ(report.ranks[0].compute_par, 0.003);
  EXPECT_DOUBLE_EQ(report.seq(), 0.001);
}

TEST(EngineTest, BarrierAlignsClocks) {
  Engine engine(uniform_platform(3, 0.001), zero_latency());
  const auto report = engine.run([](Comm& comm) {
    comm.compute(static_cast<std::uint64_t>(comm.rank() + 1) * 1'000'000);
    comm.barrier();
  });
  for (const auto& r : report.ranks) {
    EXPECT_DOUBLE_EQ(r.clock, 0.003);  // slowest rank had 3 Mflop
  }
  // Rank 0 idled 2 ms, rank 1 idled 1 ms at the barrier.
  EXPECT_NEAR(report.ranks[0].wait, 0.002, 1e-12);
  EXPECT_NEAR(report.ranks[1].wait, 0.001, 1e-12);
  EXPECT_NEAR(report.ranks[2].wait, 0.0, 1e-12);
}

TEST(EngineTest, PointToPointTimingIsRendezvous) {
  Engine engine(uniform_platform(2), zero_latency());
  constexpr std::size_t kBytes = 125'000;  // 1 megabit -> 10 ms at c=10
  const auto report = engine.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, std::vector<int>{1, 2, 3}, kBytes);
    } else {
      const auto v = comm.recv<std::vector<int>>(0);
      EXPECT_EQ(v.size(), 3u);
    }
  });
  EXPECT_NEAR(report.ranks[0].clock, 0.010, 1e-12);
  EXPECT_NEAR(report.ranks[1].clock, 0.010, 1e-12);
  EXPECT_EQ(report.ranks[0].bytes_sent, kBytes);
  EXPECT_EQ(report.ranks[1].bytes_received, kBytes);
}

TEST(EngineTest, LateReceiverDelaysTransfer) {
  Engine engine(uniform_platform(2), zero_latency());
  constexpr std::size_t kBytes = 125'000;  // 10 ms of wire time
  const auto report = engine.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 7, kBytes);
    } else {
      comm.compute(25'000'000);  // busy until t = 25 ms
      (void)comm.recv<int>(0);
    }
  });
  // Transfer starts when the receiver posts at 25 ms, ends at 35 ms.
  EXPECT_NEAR(report.ranks[1].clock, 0.035, 1e-9);
  EXPECT_NEAR(report.ranks[0].clock, 0.035, 1e-9);
}

TEST(EngineTest, MessagesBetweenSameEndpointsAreFifo) {
  Engine engine(uniform_platform(2), zero_latency());
  engine.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 1, 8);
      comm.send(1, 2, 8);
      comm.send(1, 3, 8);
    } else {
      EXPECT_EQ(comm.recv<int>(0), 1);
      EXPECT_EQ(comm.recv<int>(0), 2);
      EXPECT_EQ(comm.recv<int>(0), 3);
    }
  });
}

TEST(EngineTest, TagsAndSourcesSelectMessages) {
  // Sends are rendezvous (synchronous), so out-of-order matching is
  // exercised with two independent senders posting different tags.
  Engine engine(uniform_platform(3), zero_latency());
  engine.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(2, std::string("from0"), 8, /*tag=*/5);
    } else if (comm.rank() == 1) {
      comm.send(2, std::string("from1"), 8, /*tag=*/6);
    } else {
      // Receive in the opposite order of the sender ranks.
      EXPECT_EQ(comm.recv<std::string>(1, 6), "from1");
      EXPECT_EQ(comm.recv<std::string>(0, 5), "from0");
    }
  });
}

TEST(EngineTest, RankExceptionPropagatesAndUnblocksPeers) {
  Engine engine(uniform_platform(4), zero_latency());
  EXPECT_THROW(engine.run([](Comm& comm) {
                 if (comm.rank() == 2) {
                   throw std::runtime_error("boom");
                 }
                 comm.barrier();  // peers must not hang
               }),
               std::runtime_error);
}

TEST(EngineTest, KernelLaneErrorReachesTheCallerAndReleasesPeers) {
  // A rank body runs a 4-lane kernel region and its last lane (a pool
  // thread, not the rank's own) throws, while its peers wait in a
  // barrier.  In both executor modes the lane's Error must
  // reach engine.run's caller as that Error -- not std::terminate, and not
  // the deadlock diagnosis that unreleased peers would produce -- and the
  // kernel pool must still run the next region.
  const linalg::ScopedKernelThreads threads(4);
  for (const ExecMode mode :
       {ExecMode::kBoundedExecutor, ExecMode::kThreadPerRank}) {
    const std::string label =
        mode == ExecMode::kThreadPerRank ? "thread-per-rank" : "bounded";
    Options opts = zero_latency();
    opts.exec_mode = mode;
    Engine engine(uniform_platform(4), opts);
    std::atomic<std::size_t> region_width{0};
    std::string caught;
    try {
      (void)engine.run([&](Comm& comm) {
        if (comm.rank() == 2) {
          linalg::parallel_region(
              4, [&](std::size_t worker, std::size_t workers) {
                region_width.store(workers);
                if (worker + 1 == workers) throw Error("lane boom");
              });
        }
        comm.barrier();
      });
    } catch (const Error& e) {
      caught = e.what();
    }
    EXPECT_EQ(region_width.load(), 4u) << label;
    EXPECT_NE(caught.find("lane boom"), std::string::npos)
        << label << ": " << caught;

    std::atomic<int> calls{0};
    linalg::parallel_region(4,
                            [&](std::size_t, std::size_t) { calls++; });
    EXPECT_EQ(calls.load(), 4) << label;
  }
}

TEST(EngineTest, RecvWithNoSenderTimesOutAsDeadlock) {
  Options opts = zero_latency();
  opts.deadlock_timeout_s = 0.2;
  Engine engine(uniform_platform(2), opts);
  EXPECT_THROW(engine.run([](Comm& comm) {
                 if (comm.rank() == 1) {
                   (void)comm.recv<int>(0);  // never sent
                 }
               }),
               Error);
}

TEST(EngineTest, MismatchedCollectivesPoisonTheRun) {
  Engine engine(uniform_platform(2), zero_latency());
  EXPECT_THROW(engine.run([](Comm& comm) {
                 if (comm.rank() == 0) {
                   comm.barrier();
                 } else {
                   (void)comm.gather(0, 1, 8);
                 }
               }),
               Error);
}

TEST(EngineTest, InvalidPeerRanksAreRejected) {
  Engine engine(uniform_platform(2), zero_latency());
  EXPECT_THROW(engine.run([](Comm& comm) {
                 if (comm.rank() == 0) comm.send(5, 1, 8);
               }),
               Error);
  EXPECT_THROW(engine.run([](Comm& comm) {
                 if (comm.rank() == 0) comm.send(0, 1, 8);
               }),
               Error);
}

TEST(EngineTest, SingleRankCollectivesAreTrivial) {
  Engine engine(uniform_platform(1), zero_latency());
  const auto report = engine.run([](Comm& comm) {
    comm.barrier();
    const int v = comm.bcast(0, 42, 1024);
    EXPECT_EQ(v, 42);
    const auto g = comm.gather(0, v, 1024);
    ASSERT_EQ(g.size(), 1u);
    EXPECT_EQ(g[0], 42);
    const int s = comm.scatter(0, std::vector<int>{7}, {1024});
    EXPECT_EQ(s, 7);
  });
  EXPECT_DOUBLE_EQ(report.total_time, 0.0);
}

TEST(EngineTest, EngineCanRunMultiplePrograms) {
  Engine engine(uniform_platform(2), zero_latency());
  const auto a = engine.run([](Comm& comm) { comm.compute(1'000'000); });
  const auto b = engine.run([](Comm& comm) { comm.compute(2'000'000); });
  EXPECT_DOUBLE_EQ(a.total_time, 0.001);
  EXPECT_DOUBLE_EQ(b.total_time, 0.002);  // state fully reset between runs
}

TEST(EngineTest, RootOptionControlsReportDecomposition) {
  Options opts = zero_latency();
  opts.root = 1;
  Engine engine(uniform_platform(2), opts);
  const auto report = engine.run([](Comm& comm) {
    EXPECT_EQ(comm.root(), 1);
    EXPECT_EQ(comm.is_root(), comm.rank() == 1);
    if (comm.is_root()) comm.compute(1'000'000, Phase::kSequential);
  });
  EXPECT_EQ(report.root, 1);
  EXPECT_DOUBLE_EQ(report.seq(), 0.001);
}

TEST(EngineTest, RejectsInvalidOptions) {
  Options bad_root;
  bad_root.root = 7;
  EXPECT_THROW(Engine(uniform_platform(2), bad_root), Error);
  Options bad_latency;
  bad_latency.per_message_latency_s = -1.0;
  EXPECT_THROW(Engine(uniform_platform(2), bad_latency), Error);
}

TEST(EngineTest, ImbalanceMetricsFollowBusyTime) {
  Engine engine(uniform_platform(3, 0.001), zero_latency());
  const auto report = engine.run([](Comm& comm) {
    if (comm.rank() == 0) comm.compute(4'000'000);
    if (comm.rank() == 1) comm.compute(2'000'000);
    if (comm.rank() == 2) comm.compute(2'000'000);
  });
  EXPECT_DOUBLE_EQ(report.imbalance_all(), 2.0);
  EXPECT_DOUBLE_EQ(report.imbalance_minus_root(), 1.0);
}

TEST(EngineTest, TimeDecompositionCoversTheRun) {
  Engine engine(uniform_platform(4, 0.001), zero_latency());
  const auto report = engine.run([](Comm& comm) {
    auto part = comm.scatter(comm.root(),
                             comm.is_root() ? std::vector<int>{0, 1, 2, 3}
                                            : std::vector<int>{},
                             std::vector<std::size_t>(4, 125'000));
    comm.compute(5'000'000);
    (void)comm.gather(comm.root(), part, 125'000);
    if (comm.is_root()) comm.compute(1'000'000, Phase::kSequential);
  });
  EXPECT_GT(report.com(), 0.0);
  EXPECT_DOUBLE_EQ(report.seq(), 0.001);
  EXPECT_GT(report.par(), 0.0);
  EXPECT_NEAR(report.com() + report.seq() + report.par(), report.total_time,
              1e-9);
  EXPECT_GT(report.total_bytes_moved(), 0u);
  EXPECT_EQ(report.total_flops(), 4u * 5'000'000u + 1'000'000u);
}

TEST(EngineTest, RunsAreBitDeterministic) {
  // Drive a nontrivial mixed workload twice on a heterogeneous platform
  // and require identical virtual results, regardless of host scheduling.
  const simnet::Platform platform = simnet::fully_heterogeneous();
  const auto program = [](Comm& comm) {
    for (int iter = 0; iter < 5; ++iter) {
      comm.compute(
          static_cast<std::uint64_t>((comm.rank() * 37 + iter * 11) % 7 + 1) *
          100'000);
      const auto all =
          comm.gather(comm.root(), comm.rank() * iter, 24);
      int token = comm.is_root() ? static_cast<int>(all.size()) : 0;
      token = comm.bcast(comm.root(), token, 4096);
      EXPECT_EQ(token, comm.size());
    }
  };
  Engine a(platform);
  Engine b(platform);
  const auto ra = a.run(program);
  const auto rb = b.run(program);
  ASSERT_EQ(ra.ranks.size(), rb.ranks.size());
  EXPECT_EQ(ra.total_time, rb.total_time);
  for (std::size_t i = 0; i < ra.ranks.size(); ++i) {
    EXPECT_EQ(ra.ranks[i].clock, rb.ranks[i].clock) << "rank " << i;
    EXPECT_EQ(ra.ranks[i].comm, rb.ranks[i].comm) << "rank " << i;
    EXPECT_EQ(ra.ranks[i].wait, rb.ranks[i].wait) << "rank " << i;
    EXPECT_EQ(ra.ranks[i].compute_par, rb.ranks[i].compute_par);
    EXPECT_EQ(ra.ranks[i].bytes_sent, rb.ranks[i].bytes_sent);
  }
}


TEST(EngineTest, IsendOverlapsComputeWithTheTransfer) {
  Engine engine(uniform_platform(2), zero_latency());
  constexpr std::size_t kBytes = 125'000;  // 10 ms of wire time
  const auto report = engine.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      auto req = comm.isend(1, 7, kBytes);
      comm.compute(8'000'000);  // 8 ms of compute during the transfer
      comm.wait(req);
      // Transfer ran [0, 10ms]; compute [0, 8ms]; wait lands at 10 ms, not
      // 18 ms as a blocking send-then-compute would.
      EXPECT_NEAR(comm.now(), 0.010, 1e-9);
    } else {
      EXPECT_EQ(comm.recv<int>(0), 7);
    }
  });
  EXPECT_NEAR(report.total_time, 0.010, 1e-9);
}

TEST(EngineTest, WaitNeverMovesTheClockBackwards) {
  Engine engine(uniform_platform(2), zero_latency());
  const auto report = engine.run([](Comm& comm) {
    if (comm.rank() == 0) {
      auto req = comm.isend(1, 1, 125'000);
      comm.compute(50'000'000);  // 50 ms >> the 10 ms transfer
      comm.wait(req);
      EXPECT_NEAR(comm.now(), 0.050, 1e-9);
    } else {
      (void)comm.recv<int>(0);
    }
  });
  EXPECT_NEAR(report.ranks[0].clock, 0.050, 1e-9);
}

TEST(EngineTest, MultipleOutstandingIsendsCompleteInOrder) {
  Engine engine(uniform_platform(3), zero_latency());
  engine.run([](Comm& comm) {
    if (comm.rank() == 0) {
      auto r1 = comm.isend(1, 11, 8);
      auto r2 = comm.isend(2, 22, 8);
      comm.wait(r2);
      comm.wait(r1);
    } else if (comm.rank() == 1) {
      EXPECT_EQ(comm.recv<int>(0), 11);
    } else {
      EXPECT_EQ(comm.recv<int>(0), 22);
    }
  });
}

TEST(EngineTest, DoubleWaitIsAnError) {
  Engine engine(uniform_platform(2), zero_latency());
  EXPECT_THROW(engine.run([](Comm& comm) {
                 if (comm.rank() == 0) {
                   auto req = comm.isend(1, 1, 8);
                   comm.wait(req);
                   comm.wait(req);  // handle already retired
                 } else {
                   (void)comm.recv<int>(0);
                 }
               }),
               Error);
}

TEST(EngineTest, WaitOnDefaultRequestIsRejected) {
  Engine engine(uniform_platform(2), zero_latency());
  EXPECT_THROW(engine.run([](Comm& comm) {
                 if (comm.rank() == 0) {
                   Comm::Request req;
                   comm.wait(req);
                 }
               }),
               Error);
}

TEST(EngineTest, UnmatchedIsendWaitTimesOut) {
  Options opts = zero_latency();
  opts.deadlock_timeout_s = 0.2;
  Engine engine(uniform_platform(2), opts);
  EXPECT_THROW(engine.run([](Comm& comm) {
                 if (comm.rank() == 0) {
                   auto req = comm.isend(1, 1, 8);
                   comm.wait(req);  // rank 1 never receives
                 }
               }),
               Error);
}

class EngineSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EngineSizeSweep, GatherDeliversAllRanksInOrder) {
  Engine engine(uniform_platform(GetParam()), zero_latency());
  engine.run([](Comm& comm) {
    const auto all = comm.gather(comm.root(), comm.rank() * 10, 16);
    if (comm.is_root()) {
      ASSERT_EQ(all.size(), static_cast<std::size_t>(comm.size()));
      for (int i = 0; i < comm.size(); ++i) {
        EXPECT_EQ(all[static_cast<std::size_t>(i)], i * 10);
      }
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST_P(EngineSizeSweep, ScatterDeliversPerRankParts) {
  Engine engine(uniform_platform(GetParam()), zero_latency());
  engine.run([](Comm& comm) {
    std::vector<int> parts;
    std::vector<std::size_t> bytes;
    if (comm.is_root()) {
      for (int i = 0; i < comm.size(); ++i) {
        parts.push_back(i * 3);
        bytes.push_back(8);
      }
    } else {
      bytes.assign(static_cast<std::size_t>(comm.size()), 8);
    }
    const int mine = comm.scatter(comm.root(), std::move(parts), bytes);
    EXPECT_EQ(mine, comm.rank() * 3);
  });
}

TEST_P(EngineSizeSweep, BcastDeliversRootValueEverywhere) {
  Engine engine(uniform_platform(GetParam()), zero_latency());
  engine.run([](Comm& comm) {
    const std::string v = comm.bcast(
        comm.root(),
        comm.is_root() ? std::string("payload") : std::string(), 64);
    EXPECT_EQ(v, "payload");
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, EngineSizeSweep,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 32));

}  // namespace
}  // namespace hprs::vmpi
