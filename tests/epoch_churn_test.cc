// The epoch-reclamation suite for the lock-free read path. Four layers:
// (1) Unit: EpochManager mechanics — retire/synchronize ordering, a
// parked reader pins its garbage, nested guards reclaim only after the
// outermost exit, and a many-thread pointer-churn loop gives TSan and
// ASan real teeth. (2) Index churn: readers hammer search + stats +
// partition listings while one thread ingests through seal/merge
// cascades and drains mid-stream; quiesced answers must match brute
// force. (3) Lifetime: a reader holding an EpochGuard across the
// index's destruction keeps dereferencing its snapshot — destruction
// must block in Synchronize until the reader exits (the
// reader-outlives-drop case). (4) The stats bugfix regression: with the
// background flusher parked on seal_test_hook and the producer blocked
// at the max_inflight_seals cap, every stats surface and search must
// still serve promptly from the published snapshot — none of them may
// touch the admission lock. Runs under TSan and ASan (detect_leaks=1)
// in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "palm/api.h"
#include "palm/factory.h"
#include "palm/query_cache.h"
#include "stream/epoch.h"
#include "stream/tp.h"
#include "tests/test_util.h"

namespace coconut {
namespace stream {
namespace {

// ------------------------------------------------------------ unit layer

/// Heap object whose deleter flips a flag, so tests can observe exactly
/// when the epoch manager runs the deferred free.
struct Tracked {
  explicit Tracked(std::atomic<bool>* freed) : freed_flag(freed) {}
  ~Tracked() { freed_flag->store(true, std::memory_order_release); }
  std::atomic<bool>* freed_flag;
};

TEST(EpochManagerTest, SynchronizeFreesRetiredGarbageWhenIdle) {
  auto& mgr = epoch::EpochManager::Global();
  std::atomic<bool> freed{false};
  mgr.Retire(new Tracked(&freed));
  mgr.Synchronize();
  EXPECT_TRUE(freed.load(std::memory_order_acquire));
  EXPECT_EQ(mgr.pending_retired(), 0u);
}

TEST(EpochManagerTest, NullRetireIsANoOp) {
  auto& mgr = epoch::EpochManager::Global();
  const size_t before = mgr.pending_retired();
  mgr.Retire(static_cast<const Tracked*>(nullptr));
  EXPECT_EQ(mgr.pending_retired(), before);
}

TEST(EpochManagerTest, RetireAdvancesTheGlobalEpoch) {
  auto& mgr = epoch::EpochManager::Global();
  const uint64_t before = mgr.current_epoch();
  std::atomic<bool> freed{false};
  mgr.Retire(new Tracked(&freed));
  EXPECT_GT(mgr.current_epoch(), before);
  mgr.Synchronize();
}

TEST(EpochManagerTest, ActiveReaderPinsGarbageUntilExit) {
  auto& mgr = epoch::EpochManager::Global();
  std::atomic<bool> freed{false};
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};

  std::thread reader([&] {
    epoch::EpochGuard guard;
    entered.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  while (!entered.load(std::memory_order_acquire)) std::this_thread::yield();

  // Retired while the reader is inside: the opportunistic collection in
  // Retire must not free it (the reader's slot epoch is older), no matter
  // how many later retires try.
  mgr.Retire(new Tracked(&freed));
  std::atomic<bool> freed2{false};
  mgr.Retire(new Tracked(&freed2));
  EXPECT_FALSE(freed.load(std::memory_order_acquire));
  EXPECT_GE(mgr.pending_retired(), 2u);

  release.store(true, std::memory_order_release);
  reader.join();
  mgr.Synchronize();
  EXPECT_TRUE(freed.load(std::memory_order_acquire));
  EXPECT_TRUE(freed2.load(std::memory_order_acquire));
  EXPECT_EQ(mgr.pending_retired(), 0u);
}

TEST(EpochManagerTest, SynchronizeBlocksUntilReaderExits) {
  auto& mgr = epoch::EpochManager::Global();
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  std::atomic<bool> synced{false};

  std::thread reader([&] {
    // Nested guards: only the outermost exit may unpin the slot.
    epoch::EpochGuard outer;
    {
      epoch::EpochGuard inner;
      entered.store(true, std::memory_order_release);
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    }
    // Inner guard destroyed; the outer still pins this thread's epoch, so
    // Synchronize stays blocked a little longer.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  while (!entered.load(std::memory_order_acquire)) std::this_thread::yield();

  std::atomic<bool> freed{false};
  mgr.Retire(new Tracked(&freed));
  std::thread syncer([&] {
    mgr.Synchronize();
    synced.store(true, std::memory_order_release);
  });

  // With the reader parked inside its guard, Synchronize must not return.
  // (Timing-safe in the failure direction: a correct implementation can
  // never flip `synced` here; a broken one will, deterministically.)
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(synced.load(std::memory_order_acquire));
  EXPECT_FALSE(freed.load(std::memory_order_acquire));

  release.store(true, std::memory_order_release);
  reader.join();
  syncer.join();
  EXPECT_TRUE(synced.load(std::memory_order_acquire));
  EXPECT_TRUE(freed.load(std::memory_order_acquire));
}

TEST(EpochManagerTest, ConcurrentPointerChurnNeverServesFreedMemory) {
  // The distilled shape of the index read path: a writer republishes an
  // atomic pointer and retires the predecessor; readers load it under a
  // guard and verify the pointee. Any reclamation bug is a use-after-free
  // ASan catches and a data race TSan catches.
  struct Node {
    explicit Node(uint64_t v) : value(v), check(~v) {}
    uint64_t value;
    uint64_t check;
  };
  auto& mgr = epoch::EpochManager::Global();
  std::atomic<const Node*> published{new Node(0)};
  std::atomic<bool> stop{false};

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        epoch::EpochGuard guard;
        const Node* node = published.load(std::memory_order_acquire);
        // The pointee must be intact for as long as the guard is held.
        EXPECT_EQ(node->check, ~node->value);
      }
    });
  }

  for (uint64_t v = 1; v <= 2000; ++v) {
    const Node* old = published.exchange(new Node(v),
                                         std::memory_order_acq_rel);
    mgr.Retire(old);
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& r : readers) r.join();

  mgr.Retire(published.exchange(nullptr, std::memory_order_acq_rel));
  mgr.Synchronize();
  EXPECT_EQ(mgr.pending_retired(), 0u);
}

// ----------------------------------------------------------- churn layer

series::SaxConfig TestSax() {
  return series::SaxConfig{.series_length = 64, .num_segments = 8,
                           .bits_per_segment = 8};
}

class EpochChurnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto r = storage::MakeTempStorage("epoch_churn");
    ASSERT_TRUE(r.ok());
    mgr_ = r.TakeValue();
    collection_ = testutil::RandomWalkCollection(600, 64, 977);
    raw_ = core::RawSeriesStore::Create(mgr_.get(), "raw", 64).TakeValue();
  }
  void TearDown() override { ASSERT_TRUE(mgr_->Clear().ok()); }

  /// Readers race a full ingest → seal → merge cascade with periodic
  /// mid-stream drains; after quiescing, exact answers must equal brute
  /// force and the epoch manager must have nothing left to free.
  void Churn(palm::VariantSpec spec, const std::string& name) {
    ThreadPool background(2);
    spec.async_ingest = true;
    spec.background_pool = &background;
    auto stream = palm::CreateStreamingIndex(spec, mgr_.get(), name,
                                             nullptr, raw_.get())
                      .TakeValue();
    ASSERT_NE(stream, nullptr);
    ASSERT_TRUE(stream->ConcurrentReadsSafe());
    auto* tp = dynamic_cast<TemporalPartitioningIndex*>(stream.get());

    std::atomic<bool> stop{false};
    // Series handed to Ingest so far, bumped before each call: a seal the
    // call triggers can publish its partition before the call returns.
    std::atomic<size_t> ingest_calls{0};

    // Fixed probes: over a grow-only index the exact nearest distance for
    // a fixed query is non-increasing. A reader that ever saw a worse
    // answer than before read a torn or reclaimed snapshot.
    std::vector<std::vector<float>> probes;
    for (size_t i = 0; i < 3; ++i) {
      probes.push_back(
          testutil::NoisyCopy(collection_, 200 * i + 7, 0.4, 500 + i));
    }

    auto querier = [&](uint64_t seed) {
      Rng rng(seed);
      std::vector<double> best(probes.size(),
                               std::numeric_limits<double>::infinity());
      do {
        for (size_t q = 0; q < probes.size(); ++q) {
          core::QueryCounters counters;
          const bool exact = rng.NextBounded(2) == 0;
          auto result =
              exact ? stream->ExactSearch(probes[q], {}, &counters)
                    : stream->ApproxSearch(probes[q], {}, &counters);
          ASSERT_TRUE(result.ok()) << result.status().ToString();
          if (exact && result.value().found) {
            EXPECT_LE(result.value().distance_sq, best[q] + 1e-6);
            best[q] = std::min(best[q], result.value().distance_sq);
          }
        }
      } while (!stop.load(std::memory_order_acquire));
    };

    auto stats_reader = [&] {
      uint64_t last_entries = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const StreamingStats stats = stream->SnapshotStats();
        EXPECT_GE(stats.entries, last_entries);
        last_entries = stats.entries;
        EXPECT_GE(stats.entries, stats.buffered);
        (void)stream->num_entries();
        (void)stream->num_partitions();
        (void)stream->index_bytes();
        if (tp != nullptr) {
          // Partition listings are epoch-guarded snapshot reads too; the
          // listed totals must be internally consistent mid-cascade.
          uint64_t sealed = 0;
          for (const auto& part : tp->SnapshotPartitions()) {
            sealed += part.entries;
            EXPECT_LE(part.t_min, part.t_max);
          }
          EXPECT_LE(sealed, ingest_calls.load(std::memory_order_acquire));
        }
        std::this_thread::yield();
      }
    };

    std::thread q1(querier, 9001);
    std::thread q2(querier, 9002);
    std::thread s1(stats_reader);

    // Ingest with drains mid-stream: FlushAll's unconditional detach and
    // drain barrier republishes snapshots while readers are mid-query —
    // exactly the writer edge the epoch scheme must make safe.
    for (size_t i = 0; i < collection_.size(); ++i) {
      ASSERT_TRUE(raw_->Append(collection_[i]).ok());
      ingest_calls.store(i + 1, std::memory_order_release);
      ASSERT_TRUE(
          stream->Ingest(i, collection_[i], static_cast<int64_t>(i)).ok());
      if ((i + 1) % 150 == 0) {
        ASSERT_TRUE(stream->FlushAll().ok());
      }
    }
    ASSERT_TRUE(stream->FlushAll().ok());
    stop.store(true, std::memory_order_release);
    q1.join();
    q2.join();
    s1.join();

    // Quiesced exactness against brute force.
    for (size_t q = 0; q < probes.size(); ++q) {
      core::QueryCounters counters;
      auto result = stream->ExactSearch(probes[q], {}, &counters);
      ASSERT_TRUE(result.ok());
      ASSERT_TRUE(result.value().found);
      const auto truth = testutil::BruteForceNearest(collection_, probes[q]);
      EXPECT_EQ(result.value().series_id, truth.index);
      EXPECT_NEAR(result.value().distance_sq, truth.distance_sq, 1e-3);
    }
    const StreamingStats final_stats = stream->SnapshotStats();
    EXPECT_EQ(final_stats.entries, collection_.size());
    EXPECT_EQ(final_stats.buffered, 0u);
    EXPECT_EQ(final_stats.pending_tasks, 0u);

    // Teardown synchronizes: nothing retired may outlive the index.
    stream.reset();
    EXPECT_EQ(epoch::EpochManager::Global().pending_retired(), 0u);
  }

  std::unique_ptr<storage::StorageManager> mgr_;
  std::unique_ptr<core::RawSeriesStore> raw_;
  series::SeriesCollection collection_{64};
};

TEST_F(EpochChurnTest, TpReadersRaceSealsAndDrains) {
  palm::VariantSpec spec;
  spec.sax = TestSax();
  spec.family = palm::IndexFamily::kCTree;
  spec.mode = palm::StreamMode::kTP;
  spec.buffer_entries = 48;
  Churn(spec, "tp_churn");
}

TEST_F(EpochChurnTest, BtpReadersRaceMergeCascades) {
  palm::VariantSpec spec;
  spec.sax = TestSax();
  spec.family = palm::IndexFamily::kClsm;
  spec.mode = palm::StreamMode::kBTP;
  spec.buffer_entries = 48;
  spec.btp_merge_k = 2;
  Churn(spec, "btp_churn");
}

TEST_F(EpochChurnTest, ClsmReadersRaceFlushesAndMerges) {
  palm::VariantSpec spec;
  spec.sax = TestSax();
  spec.family = palm::IndexFamily::kClsm;
  spec.mode = palm::StreamMode::kPP;
  spec.buffer_entries = 48;
  Churn(spec, "clsm_churn");
}

// -------------------------------------------------------- lifetime layer

// The reader-outlives-drop case: a reader inside its EpochGuard keeps
// dereferencing a loaded snapshot while another thread destroys the
// index. The destructor's Synchronize must block until the reader exits;
// the snapshot must stay intact (ASan would flag any early free) and the
// destruction must complete afterwards.
TEST_F(EpochChurnTest, ReaderHoldingGuardOutlivesIndexDestruction) {
  ThreadPool background(2);
  palm::VariantSpec spec;
  spec.sax = TestSax();
  spec.family = palm::IndexFamily::kCTree;
  spec.mode = palm::StreamMode::kTP;
  spec.buffer_entries = 32;
  spec.async_ingest = true;
  spec.background_pool = &background;
  auto stream = palm::CreateStreamingIndex(spec, mgr_.get(), "drop_race",
                                           nullptr, raw_.get())
                    .TakeValue();
  auto* tp = dynamic_cast<TemporalPartitioningIndex*>(stream.get());
  ASSERT_NE(tp, nullptr);

  for (size_t i = 0; i < 120; ++i) {
    ASSERT_TRUE(raw_->Append(collection_[i]).ok());
    ASSERT_TRUE(
        stream->Ingest(i, collection_[i], static_cast<int64_t>(i)).ok());
  }
  ASSERT_TRUE(stream->FlushAll().ok());

  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  std::atomic<bool> destroyed{false};
  std::thread reader([&] {
    epoch::EpochGuard guard;
    const auto* snap = tp->snapshot_for_testing();
    const uint64_t sealed = snap->entries_sealed;
    const size_t parts = snap->partitions->size();
    EXPECT_EQ(sealed, 120u);
    entered.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      // Every iteration re-reads the snapshot the index is trying to
      // reclaim: freed-too-early is a deterministic ASan hit.
      EXPECT_EQ(snap->entries_sealed, sealed);
      EXPECT_EQ(snap->partitions->size(), parts);
      std::this_thread::yield();
    }
  });
  while (!entered.load(std::memory_order_acquire)) std::this_thread::yield();

  std::thread destroyer([&] {
    stream.reset();  // Drains the strand, retires the snapshot, syncs.
    destroyed.store(true, std::memory_order_release);
  });

  // Timing-safe in the failure direction: a correct destructor can never
  // finish while the reader is pinned inside its guard.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_FALSE(destroyed.load(std::memory_order_acquire));

  release.store(true, std::memory_order_release);
  reader.join();
  destroyer.join();
  EXPECT_TRUE(destroyed.load(std::memory_order_acquire));
  EXPECT_EQ(epoch::EpochManager::Global().pending_retired(), 0u);
}

// ---------------------------------------------------- stats bugfix layer

// Regression for the read-side bugfix: SnapshotStats / SnapshotPartitions
// used to take the admission lock, so a parked flusher plus a producer
// blocked at the seal cap could stall every stats surface. They now serve
// from the published snapshot; with the flusher parked on seal_test_hook
// and Ingest blocked at max_inflight_seals, stats and searches must
// return promptly and reflect every acknowledged entry.
TEST_F(EpochChurnTest, StatsAndSearchServeWhileFlusherParkedAtCap) {
  ThreadPool background(2);
  std::mutex hook_mu;
  std::condition_variable hook_cv;
  bool parked = false;
  bool release_hook = false;

  palm::VariantSpec spec;
  spec.sax = TestSax();
  spec.family = palm::IndexFamily::kCTree;
  spec.mode = palm::StreamMode::kTP;
  spec.buffer_entries = 32;
  spec.async_ingest = true;
  spec.background_pool = &background;
  spec.max_inflight_seals = 1;  // kBlock (default): Ingest parks at cap.
  spec.seal_test_hook = [&] {
    std::unique_lock<std::mutex> lock(hook_mu);
    parked = true;
    hook_cv.notify_all();
    hook_cv.wait(lock, [&] { return release_hook; });
    return Status::OK();
  };
  auto stream = palm::CreateStreamingIndex(spec, mgr_.get(), "parked",
                                           nullptr, raw_.get())
                    .TakeValue();
  auto* tp = dynamic_cast<TemporalPartitioningIndex*>(stream.get());
  ASSERT_NE(tp, nullptr);

  constexpr size_t kTotal = 200;
  std::atomic<size_t> acknowledged{0};
  std::thread writer([&] {
    for (size_t i = 0; i < kTotal; ++i) {
      ASSERT_TRUE(raw_->Append(collection_[i]).ok());
      ASSERT_TRUE(
          stream->Ingest(i, collection_[i], static_cast<int64_t>(i)).ok());
      acknowledged.store(i + 1, std::memory_order_release);
    }
  });

  // Wait until the first seal is parked inside the hook; soon after, the
  // writer fills the next buffer and blocks at the cap.
  {
    std::unique_lock<std::mutex> lock(hook_mu);
    hook_cv.wait(lock, [&] { return parked; });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const size_t ack = acknowledged.load(std::memory_order_acquire);
  ASSERT_GT(ack, 0u);
  ASSERT_LT(ack, kTotal);  // Producer is wedged behind the parked seal.

  // Every read surface answers now, from the snapshot, with the seal
  // still parked and the producer still blocked. (If any of them touched
  // the admission lock, correctness here degrades to "whenever the hook
  // lets go" — and the final assertions below would still hold, so this
  // mid-stall section is the regression's teeth.)
  const StreamingStats stalled = stream->SnapshotStats();
  EXPECT_GE(stalled.entries, ack > 1 ? ack - 1 : 0u);
  EXPECT_GE(stalled.seals_inflight, 1u);
  (void)tp->SnapshotPartitions();
  (void)stream->num_entries();
  (void)stream->num_partitions();
  (void)stream->index_bytes();
  (void)stream->describe();

  // Acknowledged entries are queryable mid-stall: the exact self-query
  // of an admitted series must come back at distance ~0 without waiting
  // for the flusher.
  const size_t probe = ack - 1;
  core::QueryCounters counters;
  auto hit = stream->ExactSearch(collection_[probe], {}, &counters);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  ASSERT_TRUE(hit.value().found);
  EXPECT_EQ(hit.value().series_id, probe);
  EXPECT_NEAR(hit.value().distance_sq, 0.0, 1e-6);

  {
    std::lock_guard<std::mutex> lock(hook_mu);
    release_hook = true;
  }
  hook_cv.notify_all();
  writer.join();
  ASSERT_TRUE(stream->FlushAll().ok());

  const StreamingStats final_stats = stream->SnapshotStats();
  EXPECT_EQ(final_stats.entries, kTotal);
  EXPECT_EQ(final_stats.buffered, 0u);
  EXPECT_EQ(final_stats.seals_inflight, 0u);
  EXPECT_GT(final_stats.seals_completed, 0u);
  // The producer really did hit the cap: the block left a stall sample.
  EXPECT_FALSE(final_stats.stall_samples.empty());
}

}  // namespace
}  // namespace stream

// --------------------------------------------------------- service layer

// DropIndex races live lock-free queries and listings: queriers and a
// ListIndexes hammer run against a drop of the same index. Every query
// must come back OK or NotFound (never a crash, never a freed snapshot),
// the drop itself must succeed mid-traffic, and afterwards every querier
// observes NotFound. Exercises the Synchronize barrier DropIndex runs
// between quiescing the handle and tearing it down — for an async stream
// and for static indexes, which take the same lock-free path.
namespace palm {
namespace api {
namespace {

constexpr size_t kDropRaceLength = 32;

series::SaxConfig DropRaceSax() {
  return series::SaxConfig{.series_length = kDropRaceLength,
                           .num_segments = 8,
                           .bits_per_segment = 8};
}

/// Runs the race against index "live", which `populate` creates over
/// `data`. With `heatmaps`, every other query also captures a heat map.
void RunDropRace(const std::string& root_name,
                 const std::function<void(Service*,
                                          const series::SeriesCollection&)>&
                     populate,
                 bool streaming, bool heatmaps) {
  const std::string root =
      std::filesystem::temp_directory_path().string() + "/" + root_name;
  std::filesystem::remove_all(root);
  {
    std::unique_ptr<Service> service = Service::Create(root).TakeValue();
    service->EnableQueryCache(QueryCacheOptions{});
    const series::SeriesCollection data =
        testutil::RandomWalkCollection(120, kDropRaceLength, 51);
    populate(service.get(), data);
    if (::testing::Test::HasFatalFailure()) return;

    std::atomic<bool> stop{false};
    std::atomic<size_t> not_found_seen{0};
    std::vector<std::thread> queriers;
    for (size_t t = 0; t < 2; ++t) {
      queriers.emplace_back([&, t] {
        bool saw_not_found = false;
        Rng rng(600 + t);
        for (uint64_t n = 0;
             !stop.load(std::memory_order_acquire) || !saw_not_found; ++n) {
          QueryRequest request;
          request.index = "live";
          request.query = testutil::NoisyCopy(
              data, rng.NextBounded(data.size()), 0.3, 700 + t);
          request.capture_heatmap = heatmaps && n % 2 == 1;
          Result<QueryReport> r = service->Query(request);
          if (r.ok()) {
            EXPECT_TRUE(r.value().found);
            EXPECT_EQ(r.value().has_heatmap, request.capture_heatmap);
          } else {
            ASSERT_EQ(r.status().code(), StatusCode::kNotFound)
                << r.status().ToString();
            if (!saw_not_found) {
              saw_not_found = true;
              not_found_seen.fetch_add(1, std::memory_order_acq_rel);
            }
          }
        }
      });
    }
    std::thread lister([&] {
      while (!stop.load(std::memory_order_acquire)) {
        for (const auto& info : service->ListIndexes().indexes) {
          EXPECT_EQ(info.name, "live");
          EXPECT_EQ(info.streaming, streaming);
        }
        std::this_thread::yield();
      }
    });

    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    DropIndexRequest drop;
    drop.index = "live";
    Result<DropIndexResponse> dropped = service->DropIndex(drop);
    ASSERT_TRUE(dropped.ok()) << dropped.status().ToString();
    EXPECT_TRUE(dropped.value().dropped);

    stop.store(true, std::memory_order_release);
    for (std::thread& q : queriers) q.join();
    lister.join();
    // Post-drop, every querier observed the index gone.
    EXPECT_EQ(not_found_seen.load(std::memory_order_acquire), 2u);
    EXPECT_TRUE(service->ListIndexes().indexes.empty());
  }
  std::filesystem::remove_all(root);
}

TEST(EpochDropRaceTest, DropIndexWhileLockFreeQueriesAndListingsRace) {
  RunDropRace(
      "epoch_drop_race",
      [](Service* service, const series::SeriesCollection& data) {
        CreateStreamRequest create;
        create.stream = "live";
        create.spec.sax = DropRaceSax();
        create.spec.family = IndexFamily::kCTree;
        create.spec.mode = StreamMode::kTP;
        create.spec.buffer_entries = 24;
        create.spec.async_ingest = true;  // Lock-free read path engaged.
        ASSERT_TRUE(service->CreateStream(create).ok());
        IngestBatchRequest ingest;
        ingest.stream = "live";
        ingest.batch = data;
        for (size_t i = 0; i < data.size(); ++i) {
          ingest.timestamps.push_back(static_cast<int64_t>(i));
        }
        ASSERT_TRUE(service->IngestBatch(ingest).ok());
      },
      /*streaming=*/true, /*heatmaps=*/true);
}

/// A static index of `family` over the race's data.
std::function<void(Service*, const series::SeriesCollection&)> BuildStatic(
    IndexFamily family, size_t shards) {
  return [family, shards](Service* service,
                          const series::SeriesCollection& data) {
    ASSERT_TRUE(service->RegisterDataset("walk", data, nullptr).ok());
    VariantSpec spec;
    spec.sax = DropRaceSax();
    spec.family = family;
    spec.num_shards = shards;
    spec.buffer_entries = 24;
    ASSERT_TRUE(service->BuildIndex("live", spec, "walk").ok());
    // The index owns its data: the dataset may go first.
    ASSERT_TRUE(service->DropDataset("walk").ok());
  };
}

TEST(EpochDropRaceTest, DropStaticCTreeWhileQueriesAndListingsRace) {
  RunDropRace("epoch_drop_race_ctree", BuildStatic(IndexFamily::kCTree, 1),
              /*streaming=*/false, /*heatmaps=*/true);
}

TEST(EpochDropRaceTest, DropStaticAdsWhileQueriesAndListingsRace) {
  RunDropRace("epoch_drop_race_ads", BuildStatic(IndexFamily::kAds, 1),
              /*streaming=*/false, /*heatmaps=*/true);
}

TEST(EpochDropRaceTest, DropShardedCTreeWhileQueriesAndListingsRace) {
  RunDropRace("epoch_drop_race_sharded", BuildStatic(IndexFamily::kCTree, 2),
              /*streaming=*/false, /*heatmaps=*/false);
}

}  // namespace
}  // namespace api
}  // namespace palm
}  // namespace coconut
