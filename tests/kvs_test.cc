// Tests for src/kvs: memtable, bloom filter, block cache, SST files, the
// LSM store (both read paths), and the Kreon mmio store.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "src/core/aquila.h"
#include "src/kvs/block_cache.h"
#include "src/kvs/bloom.h"
#include "src/kvs/kreon_db.h"
#include "src/kvs/lsm_db.h"
#include "src/kvs/memtable.h"
#include "src/kvs/sst.h"
#include "src/storage/nvme_device.h"
#include "src/storage/pmem_device.h"
#include "src/util/rng.h"

namespace aquila {
namespace {

// --- MemTable -------------------------------------------------------------------

TEST(MemTableTest, PutGetNewestWins) {
  MemTable table;
  table.Add(1, ValueType::kValue, "key1", "v1");
  table.Add(2, ValueType::kValue, "key1", "v2");
  std::string value;
  bool deleted;
  ASSERT_TRUE(table.Get("key1", &value, &deleted));
  EXPECT_FALSE(deleted);
  EXPECT_EQ(value, "v2");
  EXPECT_FALSE(table.Get("key2", &value, &deleted));
}

TEST(MemTableTest, DeletionShadowsValue) {
  MemTable table;
  table.Add(1, ValueType::kValue, "k", "v");
  table.Add(2, ValueType::kDeletion, "k", "");
  std::string value;
  bool deleted;
  ASSERT_TRUE(table.Get("k", &value, &deleted));
  EXPECT_TRUE(deleted);
}

TEST(MemTableTest, IterationSortedByKeyThenNewest) {
  MemTable table;
  table.Add(1, ValueType::kValue, "b", "b1");
  table.Add(2, ValueType::kValue, "a", "a1");
  table.Add(3, ValueType::kValue, "b", "b2");
  table.Add(4, ValueType::kValue, "c", "c1");
  MemTable::Iterator it(&table);
  std::vector<std::pair<std::string, std::string>> seen;
  for (it.SeekToFirst(); it.Valid(); it.Next()) {
    seen.emplace_back(it.key().ToString(), it.value().ToString());
  }
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0].first, "a");
  EXPECT_EQ(seen[1], (std::pair<std::string, std::string>{"b", "b2"}));  // newest first
  EXPECT_EQ(seen[2], (std::pair<std::string, std::string>{"b", "b1"}));
  EXPECT_EQ(seen[3].first, "c");
}

TEST(MemTableTest, ManyRandomKeys) {
  MemTable table;
  std::map<std::string, std::string> model;
  Rng rng(3);
  for (int i = 0; i < 5000; i++) {
    std::string key = "key" + std::to_string(rng.Uniform(1000));
    std::string value = "val" + std::to_string(i);
    table.Add(static_cast<uint64_t>(i + 1), ValueType::kValue, key, value);
    model[key] = value;
  }
  for (const auto& [key, expect] : model) {
    std::string value;
    bool deleted;
    ASSERT_TRUE(table.Get(key, &value, &deleted)) << key;
    EXPECT_EQ(value, expect);
  }
  EXPECT_EQ(table.entries(), 5000u);
}

// --- Bloom ----------------------------------------------------------------------

TEST(BloomTest, NoFalseNegatives) {
  BloomFilterBuilder builder(10);
  for (int i = 0; i < 2000; i++) {
    builder.AddKey("bloomkey" + std::to_string(i));
  }
  std::string data = builder.Finish();
  BloomFilter filter{Slice(data)};
  for (int i = 0; i < 2000; i++) {
    EXPECT_TRUE(filter.MayContain("bloomkey" + std::to_string(i))) << i;
  }
}

TEST(BloomTest, LowFalsePositiveRate) {
  BloomFilterBuilder builder(10);
  for (int i = 0; i < 2000; i++) {
    builder.AddKey("present" + std::to_string(i));
  }
  std::string data = builder.Finish();
  BloomFilter filter{Slice(data)};
  int false_positives = 0;
  for (int i = 0; i < 10000; i++) {
    if (filter.MayContain("absent" + std::to_string(i))) {
      false_positives++;
    }
  }
  EXPECT_LT(false_positives, 300);  // ~1% expected at 10 bits/key
}

// --- BlockCache -----------------------------------------------------------------

TEST(BlockCacheTest, HitMissEvict) {
  BlockCache::Options options;
  options.capacity_bytes = 64 * 1024;
  options.shards = 1;
  BlockCache cache(options);
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
  cache.Insert(1, 0, std::make_shared<std::string>(4096, 'x'));
  auto hit = cache.Lookup(1, 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->size(), 4096u);
  // Fill beyond capacity: LRU (the first block, untouched since) evicts.
  for (int i = 1; i < 32; i++) {
    cache.Insert(1, i * 4096, std::make_shared<std::string>(4096, 'y'));
  }
  EXPECT_GT(cache.stats().evictions.load(), 0u);
  EXPECT_LE(cache.UsedBytes(), options.capacity_bytes);
}

TEST(BlockCacheTest, LruKeepsHotBlocks) {
  BlockCache::Options options;
  options.capacity_bytes = 4 * (4096 + 64);
  options.shards = 1;
  BlockCache cache(options);
  for (int i = 0; i < 4; i++) {
    cache.Insert(1, i * 4096, std::make_shared<std::string>(4096, 'a'));
  }
  // Touch block 0 so it is MRU, then insert to force one eviction.
  ASSERT_NE(cache.Lookup(1, 0), nullptr);
  cache.Insert(1, 100 * 4096, std::make_shared<std::string>(4096, 'b'));
  EXPECT_NE(cache.Lookup(1, 0), nullptr);   // survived
  EXPECT_EQ(cache.Lookup(1, 4096), nullptr);  // LRU victim
}

TEST(BlockCacheTest, LookupChargesCycles) {
  BlockCache::Options options;
  BlockCache cache(options);
  SimClock& clock = ThisThreadClock();
  uint64_t before = clock.Breakdown()[CostCategory::kCacheMgmt];
  cache.Lookup(9, 9);
  EXPECT_GE(clock.Breakdown()[CostCategory::kCacheMgmt] - before, options.lookup_surcharge);
}

// --- SST + LSM over a real blobstore --------------------------------------------

class KvsFixture : public ::testing::Test {
 protected:
  KvsFixture() {
    PmemDevice::Options dev_options;
    dev_options.capacity_bytes = 512ull << 20;
    device_ = std::make_unique<PmemDevice>(dev_options);
    Blobstore::Options bs_options;
    bs_options.cluster_size = 64 * 1024;
    bs_options.metadata_bytes = 4ull << 20;
    auto store = Blobstore::Format(ThisVcpu(), device_.get(), bs_options);
    AQUILA_CHECK(store.ok());
    store_ = std::move(*store);
    ns_ = std::make_unique<BlobNamespace>(store_.get());
  }

  KvsEnv MakeEnv(ReadPath path, MmioEngine* engine = nullptr) {
    KvsEnv::Options options;
    options.store = store_.get();
    options.ns = ns_.get();
    options.read_path = path;
    options.mmio_engine = engine;
    return KvsEnv(options);
  }

  std::unique_ptr<PmemDevice> device_;
  std::unique_ptr<Blobstore> store_;
  std::unique_ptr<BlobNamespace> ns_;
};

TEST_F(KvsFixture, SstBuildAndRead) {
  KvsEnv env = MakeEnv(ReadPath::kDirectIo);
  auto file = env.NewWritableFile("/t1.sst");
  ASSERT_TRUE(file.ok());
  SstBuilder builder(file->get(), SstOptions{});
  for (int i = 0; i < 1000; i++) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%06d", i);
    builder.Add(Slice(key), 1000 + i, i % 7 == 3 ? ValueType::kDeletion : ValueType::kValue,
                "value" + std::to_string(i));
  }
  ASSERT_TRUE(builder.Finish().ok());
  EXPECT_EQ(builder.num_entries(), 1000u);
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE((*file)->Close().ok());

  auto raf = env.NewRandomAccessFile("/t1.sst");
  ASSERT_TRUE(raf.ok());
  auto reader = SstReader::Open(std::move(*raf), nullptr, 1);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->smallest_key(), "key000000");
  EXPECT_EQ((*reader)->largest_key(), "key000999");
  EXPECT_GT((*reader)->num_blocks(), 1u);

  for (int i = 0; i < 1000; i++) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%06d", i);
    std::string value;
    bool found, deleted;
    ASSERT_TRUE((*reader)->Get(Slice(key), &value, &found, &deleted).ok());
    ASSERT_TRUE(found) << key;
    if (i % 7 == 3) {
      EXPECT_TRUE(deleted);
    } else {
      EXPECT_EQ(value, "value" + std::to_string(i));
    }
  }
  std::string value;
  bool found, deleted;
  ASSERT_TRUE((*reader)->Get("missing", &value, &found, &deleted).ok());
  EXPECT_FALSE(found);
}

TEST_F(KvsFixture, SstIteratorOrderAndSeek) {
  KvsEnv env = MakeEnv(ReadPath::kDirectIo);
  auto file = env.NewWritableFile("/t2.sst");
  ASSERT_TRUE(file.ok());
  SstBuilder builder(file->get(), SstOptions{});
  for (int i = 0; i < 500; i++) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%06d", i * 2);
    builder.Add(Slice(key), i, ValueType::kValue, std::string(100, 'v'));
  }
  ASSERT_TRUE(builder.Finish().ok());
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE((*file)->Close().ok());

  auto raf = env.NewRandomAccessFile("/t2.sst");
  ASSERT_TRUE(raf.ok());
  auto reader = SstReader::Open(std::move(*raf), nullptr, 2);
  ASSERT_TRUE(reader.ok());
  SstReader::Iterator it(reader->get());
  int count = 0;
  std::string prev;
  for (it.SeekToFirst(); it.Valid(); it.Next()) {
    std::string key = it.key().ToString();
    EXPECT_GT(key, prev);
    prev = key;
    count++;
  }
  EXPECT_EQ(count, 500);
  ASSERT_TRUE(it.status().ok());

  it.Seek("key000101");  // between entries: lands on the next one
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key().ToString(), "key000102");
  it.Seek("key000998");  // exact match on the largest key
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key().ToString(), "key000998");
  it.Seek("key999999");  // beyond everything
  EXPECT_FALSE(it.Valid());
}

TEST_F(KvsFixture, LsmPutGetOverwriteDelete) {
  KvsEnv env = MakeEnv(ReadPath::kDirectIo);
  BlockCache cache(BlockCache::Options{});
  LsmDb::Options options;
  options.env = &env;
  options.block_cache = &cache;
  options.memtable_bytes = 256 * 1024;
  auto db = LsmDb::Open(options);
  ASSERT_TRUE(db.ok());

  std::map<std::string, std::string> model;
  Rng rng(11);
  for (int i = 0; i < 20000; i++) {
    std::string key = "k" + std::to_string(rng.Uniform(5000));
    if (rng.OneIn(10)) {
      ASSERT_TRUE((*db)->Delete(key).ok());
      model.erase(key);
    } else {
      std::string value = "v" + std::to_string(i);
      ASSERT_TRUE((*db)->Put(key, value).ok());
      model[key] = value;
    }
  }
  EXPECT_GT((*db)->stats().flushes.load(), 0u);
  EXPECT_GT((*db)->stats().compactions.load(), 0u);

  for (const auto& [key, expect] : model) {
    std::string value;
    bool found;
    ASSERT_TRUE((*db)->Get(key, &value, &found).ok());
    ASSERT_TRUE(found) << key;
    EXPECT_EQ(value, expect) << key;
  }
  // Deleted keys stay gone.
  for (int i = 0; i < 5000; i++) {
    std::string key = "k" + std::to_string(i);
    if (model.count(key) == 0) {
      std::string value;
      bool found;
      ASSERT_TRUE((*db)->Get(key, &value, &found).ok());
      EXPECT_FALSE(found) << key;
    }
  }
}

TEST_F(KvsFixture, LsmScanMergesLevelsAndMemtable) {
  KvsEnv env = MakeEnv(ReadPath::kDirectIo);
  LsmDb::Options options;
  options.env = &env;
  options.memtable_bytes = 64 * 1024;
  auto db = LsmDb::Open(options);
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 2000; i++) {
    char key[16];
    std::snprintf(key, sizeof(key), "s%06d", i);
    ASSERT_TRUE((*db)->Put(Slice(key), "val" + std::to_string(i)).ok());
  }
  // Overwrite some in the memtable after flushes.
  ASSERT_TRUE((*db)->Put("s000100", "fresh").ok());

  std::vector<std::pair<std::string, std::string>> seen;
  ASSERT_TRUE((*db)
                  ->Scan("s000098", 5,
                         [&](const Slice& k, const Slice& v) {
                           seen.emplace_back(k.ToString(), v.ToString());
                         })
                  .ok());
  ASSERT_EQ(seen.size(), 5u);
  EXPECT_EQ(seen[0].first, "s000098");
  EXPECT_EQ(seen[2], (std::pair<std::string, std::string>{"s000100", "fresh"}));
  for (size_t i = 1; i < seen.size(); i++) {
    EXPECT_GT(seen[i].first, seen[i - 1].first);
  }
}

TEST_F(KvsFixture, LsmRecoversFromManifestAndWal) {
  KvsEnv env = MakeEnv(ReadPath::kDirectIo);
  LsmDb::Options options;
  options.env = &env;
  options.memtable_bytes = 64 * 1024;
  {
    auto db = LsmDb::Open(options);
    ASSERT_TRUE(db.ok());
    for (int i = 0; i < 500; i++) {
      ASSERT_TRUE((*db)->Put("p" + std::to_string(i), "q" + std::to_string(i)).ok());
    }
    // 500 writes of ~10 bytes stay below the flush threshold for the tail:
    // some keys live only in WAL + memtable when we "crash" (no clean close
    // flush: simulate by flushing explicitly first, then writing more).
    ASSERT_TRUE((*db)->Flush().ok());
    for (int i = 500; i < 600; i++) {
      ASSERT_TRUE((*db)->Put("p" + std::to_string(i), "q" + std::to_string(i)).ok());
    }
    // Drop the DB object: the destructor flushes, but WAL replay is also
    // covered below by reopening with a WAL present.
  }
  auto db = LsmDb::Open(options);
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 600; i++) {
    std::string value;
    bool found;
    ASSERT_TRUE((*db)->Get("p" + std::to_string(i), &value, &found).ok());
    ASSERT_TRUE(found) << i;
    EXPECT_EQ(value, "q" + std::to_string(i));
  }
}

TEST_F(KvsFixture, LsmMmioModeMatchesDirectMode) {
  // Same dataset through both read paths must agree.
  Aquila::Options aq_options;
  aq_options.hypervisor.host_memory_bytes = 256ull << 20;
  aq_options.cache.capacity_pages = 4096;
  aq_options.cache.max_pages = 8192;
  aq_options.cache.eviction_batch = 64;
  Aquila runtime(aq_options);

  KvsEnv direct_env = MakeEnv(ReadPath::kDirectIo);
  LsmDb::Options options;
  options.env = &direct_env;
  options.memtable_bytes = 128 * 1024;
  options.name = "/dbx";
  {
    auto db = LsmDb::Open(options);
    ASSERT_TRUE(db.ok());
    for (int i = 0; i < 3000; i++) {
      ASSERT_TRUE((*db)->Put("m" + std::to_string(i), "w" + std::to_string(i * 3)).ok());
    }
  }

  KvsEnv mmio_env = MakeEnv(ReadPath::kMmio, &runtime);
  LsmDb::Options mmio_options = options;
  mmio_options.env = &mmio_env;
  auto db = LsmDb::Open(mmio_options);
  ASSERT_TRUE(db.ok());
  uint64_t faults_before = runtime.fault_stats().major_faults.load();
  for (int i = 0; i < 3000; i++) {
    std::string value;
    bool found;
    ASSERT_TRUE((*db)->Get("m" + std::to_string(i), &value, &found).ok());
    ASSERT_TRUE(found) << i;
    EXPECT_EQ(value, "w" + std::to_string(i * 3));
  }
  // SST reads went through the mmio path.
  EXPECT_GT(runtime.fault_stats().major_faults.load(), faults_before);
}

// --- Kreon ----------------------------------------------------------------------

class KreonFixture : public ::testing::Test {
 protected:
  KreonFixture() {
    PmemDevice::Options dev_options;
    dev_options.capacity_bytes = 128ull << 20;
    device_ = std::make_unique<PmemDevice>(dev_options);
    Aquila::Options options;
    options.hypervisor.host_memory_bytes = 256ull << 20;
    options.cache.capacity_pages = 8192;
    options.cache.max_pages = 16384;
    options.cache.eviction_batch = 64;
    runtime_ = std::make_unique<Aquila>(options);
    backing_ = std::make_unique<DeviceBacking>(device_.get(), 0, device_->capacity_bytes());
    auto map = runtime_->Map(backing_.get(), device_->capacity_bytes(),
                             kProtRead | kProtWrite);
    AQUILA_CHECK(map.ok());
    map_ = *map;
  }

  // Declaration order matters: the runtime's destructor tears down leaked
  // mappings, which writes back through the backing — the backing (and its
  // device) must outlive the runtime.
  std::unique_ptr<PmemDevice> device_;
  std::unique_ptr<DeviceBacking> backing_;
  std::unique_ptr<Aquila> runtime_;
  MemoryMap* map_;
};

TEST_F(KreonFixture, PutGetScanDelete) {
  auto db = KreonDb::Open(map_, KreonDb::Options{});
  ASSERT_TRUE(db.ok());
  std::map<std::string, std::string> model;
  Rng rng(5);
  for (int i = 0; i < 10000; i++) {
    char key[32];
    std::snprintf(key, sizeof(key), "kreon%08llu",
                  static_cast<unsigned long long>(rng.Uniform(3000)));
    std::string value = "value-" + std::to_string(i);
    ASSERT_TRUE((*db)->Put(Slice(key), value).ok());
    model[key] = value;
  }
  for (const auto& [key, expect] : model) {
    std::string value;
    bool found;
    ASSERT_TRUE((*db)->Get(key, &value, &found).ok());
    ASSERT_TRUE(found) << key;
    EXPECT_EQ(value, expect);
  }
  // Scan returns sorted keys.
  std::vector<std::string> keys;
  ASSERT_TRUE((*db)
                  ->Scan("kreon", 50,
                         [&](const Slice& k, const Slice& v) { keys.push_back(k.ToString()); })
                  .ok());
  ASSERT_EQ(keys.size(), 50u);
  for (size_t i = 1; i < keys.size(); i++) {
    EXPECT_GT(keys[i], keys[i - 1]);
  }
  // Delete hides a key.
  std::string victim = model.begin()->first;
  ASSERT_TRUE((*db)->Delete(victim).ok());
  std::string value;
  bool found;
  ASSERT_TRUE((*db)->Get(victim, &value, &found).ok());
  EXPECT_FALSE(found);
}

TEST_F(KreonFixture, PersistAndRecover) {
  {
    auto db = KreonDb::Open(map_, KreonDb::Options{});
    ASSERT_TRUE(db.ok());
    for (int i = 0; i < 500; i++) {
      ASSERT_TRUE((*db)->Put("persist" + std::to_string(i), "v" + std::to_string(i)).ok());
    }
    ASSERT_TRUE((*db)->Persist().ok());
  }
  // Reopen through the same mapping (superblock recovery path).
  auto db = KreonDb::Open(map_, KreonDb::Options{});
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->entries(), 500u);
  for (int i = 0; i < 500; i++) {
    std::string value;
    bool found;
    ASSERT_TRUE((*db)->Get("persist" + std::to_string(i), &value, &found).ok());
    ASSERT_TRUE(found) << i;
    EXPECT_EQ(value, "v" + std::to_string(i));
  }
}

TEST_F(KreonFixture, RejectsOversizeKeys) {
  auto db = KreonDb::Open(map_, KreonDb::Options{});
  ASSERT_TRUE(db.ok());
  std::string long_key(KreonDb::kMaxKeyBytes + 1, 'x');
  EXPECT_FALSE((*db)->Put(Slice(long_key), "v").ok());
  EXPECT_FALSE((*db)->Put(Slice("", 0), "v").ok());
}

// Kreon pads a record that is the first write to a page out to that page's
// end, so the mapping fills the fresh log page from the record with no
// device read (DESIGN.md §8). The padding must never cost an acknowledged
// value: the cache here is small enough to evict partly filled log pages,
// and records of up to ~2.5 KB cross page boundaries all the time.
class KreonEvictionTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kDeviceBytes = 16ull << 20;

  KreonEvictionTest() {
    PmemDevice::Options dev_options;
    dev_options.capacity_bytes = kDeviceBytes;
    device_ = std::make_unique<PmemDevice>(dev_options);
    backing_ = std::make_unique<DeviceBacking>(device_.get(), 0, kDeviceBytes);
    StartRuntime();
  }

  // A fresh runtime with nothing cached, and the whole device mapped.
  void StartRuntime() {
    Aquila::Options options;
    options.hypervisor.host_memory_bytes = 256ull << 20;
    options.cache.capacity_pages = 256;  // 1 MB under a ~4 MB log
    options.cache.max_pages = 1024;
    options.cache.eviction_batch = 32;
    runtime_ = std::make_unique<Aquila>(options);
    auto map = runtime_->Map(backing_.get(), kDeviceBytes, kProtRead | kProtWrite);
    AQUILA_CHECK(map.ok());
    map_ = *map;
  }

  void ExpectEveryValue(KreonDb* db, const std::map<std::string, std::string>& model) {
    for (const auto& [key, expect] : model) {
      std::string value;
      bool found;
      ASSERT_TRUE(db->Get(key, &value, &found).ok()) << key;
      ASSERT_TRUE(found) << key;
      ASSERT_EQ(value, expect) << key;
    }
  }

  std::unique_ptr<PmemDevice> device_;
  std::unique_ptr<DeviceBacking> backing_;
  std::unique_ptr<Aquila> runtime_;
  MemoryMap* map_;
};

TEST_F(KreonEvictionTest, AppendingIntoAFreshLogPageReadsNothing) {
  auto db = KreonDb::Open(map_, KreonDb::Options{});
  ASSERT_TRUE(db.ok());
  const uint64_t reads = device_->stats().reads.load();
  const uint64_t fills = runtime_->fault_stats().overwrite_fills.load();
  // The first record opens the log's first page; the second fills the rest
  // of it and reaches into the next one.
  ASSERT_TRUE((*db)->Put("first", std::string(100, 'a')).ok());
  ASSERT_TRUE((*db)->Put("second", std::string(4000, 'b')).ok());
  EXPECT_EQ(device_->stats().reads.load(), reads);
  EXPECT_EQ(runtime_->fault_stats().overwrite_fills.load(), fills + 2);
  std::string value;
  bool found;
  ASSERT_TRUE((*db)->Get("first", &value, &found).ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(value, std::string(100, 'a'));
  ASSERT_TRUE((*db)->Get("second", &value, &found).ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(value, std::string(4000, 'b'));
}

TEST_F(KreonEvictionTest, EvictedPartialLogPagesKeepEveryAcknowledgedValue) {
  std::map<std::string, std::string> model;
  {
    auto db = KreonDb::Open(map_, KreonDb::Options{});
    ASSERT_TRUE(db.ok());
    Rng rng(17);
    for (int i = 0; i < 3000; i++) {
      const std::string key = "evict" + std::to_string(rng.Uniform(1500));
      std::string value(50 + rng.Uniform(2500), static_cast<char>('a' + i % 26));
      value.replace(0, std::min(value.size(), key.size()), key);
      ASSERT_TRUE((*db)->Put(key, value).ok()) << i;
      model[key] = value;
      if (i % 700 == 699) {
        // Drop every cached page, the partly filled log head included: the
        // next append reads that page back and must keep its records.
        ASSERT_TRUE(map_->Advise(0, kDeviceBytes, Advice::kDontNeed).ok());
      }
    }
    EXPECT_GT(runtime_->fault_stats().evicted_pages.load(), 0u);
    EXPECT_GT(runtime_->fault_stats().overwrite_fills.load(), 0u);
    ExpectEveryValue(db->get(), model);
    ASSERT_TRUE((*db)->Persist().ok());
  }
  ASSERT_TRUE(runtime_->Unmap(map_).ok());
  StartRuntime();
  auto db = KreonDb::Open(map_, KreonDb::Options{});
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->entries(), model.size());
  ExpectEveryValue(db->get(), model);
}

// A leaf slot holds its record's length, so Get and Scan fetch a record with
// one Read, and a record across two cold log pages waits for the device once
// (DESIGN.md §8). NVMe, where a device wait is a real latency.
class KreonNvmeTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kMapBytes = 4ull << 20;

  KreonNvmeTest() {
    NvmeController::Options ctrl_options;
    ctrl_options.capacity_bytes = kMapBytes;
    ctrl_ = std::make_unique<NvmeController>(ctrl_options);
    nvme_ = std::make_unique<NvmeDevice>(ctrl_.get());
    backing_ = std::make_unique<DeviceBacking>(nvme_.get(), 0, kMapBytes);
    StartRuntime();
  }

  // A fresh runtime with nothing cached, and the whole device mapped.
  void StartRuntime() {
    Aquila::Options options;
    options.hypervisor.host_memory_bytes = 64ull << 20;
    options.cache.capacity_pages = 2048;
    options.cache.max_pages = 2048;
    runtime_ = std::make_unique<Aquila>(options);
    auto map = runtime_->Map(backing_.get(), kMapBytes, kProtRead | kProtWrite);
    AQUILA_CHECK(map.ok());
    map_ = *map;
  }

  // Simulated cycles `op` took, less the host-measured cache-management
  // share (which a sanitizer or a loaded machine inflates).
  template <typename Op>
  uint64_t Timed(Op op) {
    SimClock& clock = ThisVcpu().clock();
    const uint64_t start = clock.Now();
    const CostBreakdown before = clock.Breakdown();
    op();
    return clock.Now() - start - (clock.Breakdown() - before)[CostCategory::kCacheMgmt];
  }

  std::unique_ptr<NvmeController> ctrl_;
  std::unique_ptr<NvmeDevice> nvme_;
  std::unique_ptr<DeviceBacking> backing_;
  std::unique_ptr<Aquila> runtime_;
  MemoryMap* map_;
};

TEST_F(KreonNvmeTest, RecordAcrossTwoColdLogPagesWaitsOnce) {
  // Log layout: "two" covers log pages 0 and 1, "pad" ends page 1, and "one"
  // sits inside page 2. Records are a 9-byte header, the key and the value.
  const std::string two(6000, 't');
  const std::string pad(2 * kPageSize - (9 + 3 + two.size()) - (9 + 3), 'p');
  const std::string one(1000, 'o');
  {
    auto db = KreonDb::Open(map_, KreonDb::Options{});
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Put("two", two).ok());
    ASSERT_TRUE((*db)->Put("pad", pad).ok());
    ASSERT_TRUE((*db)->Put("one", one).ok());
    ASSERT_EQ((*db)->log_bytes_used(), 2 * kPageSize + 9 + 3 + one.size());
    ASSERT_TRUE((*db)->Persist().ok());
  }
  ASSERT_TRUE(runtime_->Unmap(map_).ok());
  StartRuntime();
  auto db = KreonDb::Open(map_, KreonDb::Options{});
  ASSERT_TRUE(db.ok());
  std::string value;
  bool found;
  ASSERT_TRUE((*db)->Get("absent", &value, &found).ok());  // the index is now cached
  EXPECT_FALSE(found);

  uint64_t reads = nvme_->stats().reads.load();
  const uint64_t one_page = Timed([&] { ASSERT_TRUE((*db)->Get("one", &value, &found).ok()); });
  ASSERT_TRUE(found);
  EXPECT_EQ(value, one);
  EXPECT_EQ(nvme_->stats().reads.load(), reads + 1);

  reads = nvme_->stats().reads.load();
  const uint64_t get = Timed([&] { ASSERT_TRUE((*db)->Get("two", &value, &found).ok()); });
  ASSERT_TRUE(found);
  EXPECT_EQ(value, two);
  EXPECT_EQ(nvme_->stats().reads.load(), reads + 2);
  EXPECT_LT(get, one_page * 3 / 2) << "one page " << one_page;

  // Drop the log pages again; the index stays cached.
  const uint64_t log_base = kMapBytes / kPageSize * KreonDb::Options{}.index_percent / 100 *
                            kPageSize;
  ASSERT_TRUE(map_->Advise(log_base, kMapBytes - log_base, Advice::kDontNeed).ok());
  reads = nvme_->stats().reads.load();
  std::vector<std::pair<std::string, std::string>> visited;
  const uint64_t scan = Timed([&] {
    ASSERT_TRUE((*db)
                    ->Scan("two", 1,
                           [&](const Slice& k, const Slice& v) {
                             visited.emplace_back(k.ToString(), v.ToString());
                           })
                    .ok());
  });
  ASSERT_EQ(visited.size(), 1u);
  EXPECT_EQ(visited[0].first, "two");
  EXPECT_EQ(visited[0].second, two);
  EXPECT_EQ(nvme_->stats().reads.load(), reads + 2);
  EXPECT_LT(scan, one_page * 3 / 2) << "one page " << one_page;
}

}  // namespace
}  // namespace aquila
