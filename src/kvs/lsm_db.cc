#include "src/kvs/lsm_db.h"

#include <algorithm>

#include "src/kvs/coding.h"
#include "src/telemetry/scoped_timer.h"
#include "src/util/crc32c.h"
#include "src/util/logging.h"
#include "src/vmx/vcpu.h"

namespace aquila {

namespace {

// WAL record: fixed32 crc | fixed32 klen | fixed32 vlen | u8 type | key |
// value, where crc is CRC32C over everything after the crc field. Recovery
// truncates the log at the first record whose checksum fails, so a torn or
// bit-flipped tail cannot resurrect garbage (only unacknowledged records
// past the tear are lost).
void EncodeWalRecord(std::string* out, ValueType type, const Slice& key, const Slice& value) {
  size_t crc_pos = out->size();
  PutFixed32(out, 0);  // patched below
  PutFixed32(out, static_cast<uint32_t>(key.size()));
  PutFixed32(out, static_cast<uint32_t>(value.size()));
  out->push_back(static_cast<char>(type));
  out->append(key.data(), key.size());
  out->append(value.data(), value.size());
  uint32_t crc = Crc32c(out->data() + crc_pos + 4, out->size() - crc_pos - 4);
  EncodeFixed32(out->data() + crc_pos, crc);
}

}  // namespace

LsmDb::LsmDb(const Options& options) : options_(options) {
  levels_.resize(options_.max_levels);
  memtable_ = std::make_shared<MemTable>();

  metrics_.AddCounter("aquila.kvs.gets", stats_.gets);
  metrics_.AddCounter("aquila.kvs.puts", stats_.puts);
  metrics_.AddCounter("aquila.kvs.memtable_hits", stats_.memtable_hits);
  metrics_.AddCounter("aquila.kvs.flushes", stats_.flushes);
  metrics_.AddCounter("aquila.kvs.compactions", stats_.compactions);
  metrics_.AddCounter("aquila.kvs.bytes_compacted", stats_.bytes_compacted);
}

LsmDb::~LsmDb() {
  // Flush buffered state so a reopened DB sees all acknowledged writes.
  std::lock_guard<std::mutex> guard(write_mu_);
  if (memtable_->entries() > 0) {
    (void)FlushMemTableLocked();
  }
}

std::string LsmDb::SstPath(uint64_t file_number) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/%06llu.sst", static_cast<unsigned long long>(file_number));
  return options_.name + buf;
}

uint64_t LsmDb::LevelMaxBytes(int level) const {
  uint64_t max = options_.l1_max_bytes;
  for (int i = 1; i < level; i++) {
    max *= options_.level_size_multiplier;
  }
  return max;
}

StatusOr<std::unique_ptr<LsmDb>> LsmDb::Open(const Options& options) {
  AQUILA_CHECK(options.env != nullptr);
  auto db = std::unique_ptr<LsmDb>(new LsmDb(options));

  // Recover the table set from the manifest, if present.
  std::string manifest_path = options.name + "/MANIFEST";
  if (options.env->FileExists(manifest_path)) {
    StatusOr<std::unique_ptr<RandomAccessFile>> file =
        options.env->NewRandomAccessFile(manifest_path);
    if (!file.ok()) {
      return file.status();
    }
    uint64_t size = (*file)->Size();
    std::string data(size, '\0');
    Slice result;
    AQUILA_RETURN_IF_ERROR((*file)->Read(0, size, data.data(), &result));
    const char* p = result.data();
    const char* limit = p + result.size();
    if (static_cast<size_t>(limit - p) < 20) {
      return Status::IoError("corrupt manifest");
    }
    db->next_file_number_.store(DecodeFixed64(p));
    db->sequence_.store(DecodeFixed64(p + 8));
    uint32_t num_levels = DecodeFixed32(p + 16);
    p += 20;
    for (uint32_t level = 0; level < num_levels && level < db->levels_.size(); level++) {
      if (static_cast<size_t>(limit - p) < 4) {
        return Status::IoError("corrupt manifest");
      }
      uint32_t count = DecodeFixed32(p);
      p += 4;
      for (uint32_t i = 0; i < count; i++) {
        if (static_cast<size_t>(limit - p) < 16) {
          return Status::IoError("corrupt manifest");
        }
        uint64_t file_number = DecodeFixed64(p);
        uint64_t file_size = DecodeFixed64(p + 8);
        p += 16;
        StatusOr<TableMeta> meta = db->OpenTable(file_number, file_size);
        if (!meta.ok()) {
          return meta.status();
        }
        db->levels_[level].push_back(std::move(*meta));
      }
    }
  }

  // Replay the WAL into the memtable.
  std::string wal_path = options.name + "/WAL";
  if (options.enable_wal && options.env->FileExists(wal_path)) {
    StatusOr<std::unique_ptr<RandomAccessFile>> wal =
        options.env->NewRandomAccessFile(wal_path);
    if (wal.ok()) {
      uint64_t size = (*wal)->Size();
      std::string data(size, '\0');
      Slice result;
      AQUILA_RETURN_IF_ERROR((*wal)->Read(0, size, data.data(), &result));
      const char* p = result.data();
      const char* limit = p + result.size();
      while (static_cast<size_t>(limit - p) >= 13) {
        uint32_t crc = DecodeFixed32(p);
        uint32_t klen = DecodeFixed32(p + 4);
        uint32_t vlen = DecodeFixed32(p + 8);
        if (static_cast<size_t>(limit - p) - 13 < static_cast<uint64_t>(klen) + vlen) {
          break;  // torn tail record
        }
        if (Crc32c(p + 4, 9 + static_cast<uint64_t>(klen) + vlen) != crc) {
          break;  // corrupt record: truncate the log here
        }
        ValueType type = static_cast<ValueType>(p[12]);
        p += 13;
        uint64_t seq = db->sequence_.fetch_add(1);
        db->memtable_->Add(seq, type, Slice(p, klen), Slice(p + klen, vlen));
        p += klen + vlen;
      }
    }
  }

  if (options.enable_wal) {
    StatusOr<std::unique_ptr<WritableFile>> wal = options.env->NewWritableFile(wal_path);
    if (!wal.ok()) {
      return wal.status();
    }
    db->wal_ = std::move(*wal);
    // Rewrite replayed records so the fresh WAL still covers the memtable.
    MemTable::Iterator it(db->memtable_.get());
    std::string batch;
    for (it.SeekToFirst(); it.Valid(); it.Next()) {
      EncodeWalRecord(&batch, it.type(), it.key(), it.value());
    }
    if (!batch.empty()) {
      AQUILA_RETURN_IF_ERROR(db->wal_->Append(batch));
    }
  }
  return db;
}

StatusOr<LsmDb::TableMeta> LsmDb::OpenTable(uint64_t file_number, uint64_t file_size) {
  StatusOr<std::unique_ptr<RandomAccessFile>> file =
      options_.env->NewRandomAccessFile(SstPath(file_number));
  if (!file.ok()) {
    return file.status();
  }
  BlockCache* cache =
      options_.env->options().read_path == ReadPath::kDirectIo ? options_.block_cache : nullptr;
  StatusOr<std::unique_ptr<SstReader>> reader =
      SstReader::Open(std::move(*file), cache, file_number);
  if (!reader.ok()) {
    return reader.status();
  }
  TableMeta meta;
  meta.file_number = file_number;
  meta.file_size = file_size;
  meta.smallest = (*reader)->smallest_key();
  meta.largest = (*reader)->largest_key();
  meta.reader = std::move(*reader);
  return meta;
}

Status LsmDb::Put(const Slice& key, const Slice& value) {
  return WriteInternal(ValueType::kValue, key, value);
}

Status LsmDb::Delete(const Slice& key) {
  return WriteInternal(ValueType::kDeletion, key, Slice());
}

Status LsmDb::SyncWal() {
  std::lock_guard<std::mutex> guard(write_mu_);
  if (wal_ == nullptr) {
    return Status::Ok();
  }
  return wal_->Sync();
}

Status LsmDb::WriteInternal(ValueType type, const Slice& key, const Slice& value) {
  std::lock_guard<std::mutex> guard(write_mu_);
  stats_.puts.fetch_add(1, std::memory_order_relaxed);
  if (wal_ != nullptr) {
    std::string record;
    EncodeWalRecord(&record, type, key, value);
    AQUILA_RETURN_IF_ERROR(wal_->Append(record));
  }
  uint64_t seq = sequence_.fetch_add(1, std::memory_order_relaxed);
  {
    ScopedMeasure measure(ThisThreadClock(), CostCategory::kUserWork);
    memtable_->Add(seq, type, key, value);
  }
  if (memtable_->ApproximateMemoryUsage() >= options_.memtable_bytes) {
    AQUILA_RETURN_IF_ERROR(FlushMemTableLocked());
    AQUILA_RETURN_IF_ERROR(MaybeCompactLocked());
  }
  return Status::Ok();
}

Status LsmDb::FlushMemTableLocked() {
  if (memtable_->entries() == 0) {
    return Status::Ok();
  }
  stats_.flushes.fetch_add(1, std::memory_order_relaxed);
  uint64_t file_number = next_file_number_.fetch_add(1, std::memory_order_relaxed);
  StatusOr<std::unique_ptr<WritableFile>> file =
      options_.env->NewWritableFile(SstPath(file_number));
  if (!file.ok()) {
    return file.status();
  }
  SstBuilder builder(file->get(), options_.sst);
  MemTable::Iterator it(memtable_.get());
  for (it.SeekToFirst(); it.Valid(); it.Next()) {
    builder.Add(it.key(), it.sequence(), it.type(), it.value());
  }
  AQUILA_RETURN_IF_ERROR(builder.Finish());
  uint64_t file_size = builder.file_size();
  AQUILA_RETURN_IF_ERROR((*file)->Sync());
  AQUILA_RETURN_IF_ERROR((*file)->Close());

  StatusOr<TableMeta> meta = OpenTable(file_number, file_size);
  if (!meta.ok()) {
    return meta.status();
  }
  {
    // Publish the new table and retire the memtable atomically: a reader
    // sees either the old memtable (which still holds the data) or the new
    // L0 table — never neither.
    ExclusiveLockGuard guard(version_lock_);
    levels_[0].insert(levels_[0].begin(), std::move(*meta));  // newest first
    memtable_ = std::make_shared<MemTable>();
  }
  if (wal_ != nullptr) {
    AQUILA_RETURN_IF_ERROR(wal_->Close());
    (void)options_.env->DeleteFile(options_.name + "/WAL");
    StatusOr<std::unique_ptr<WritableFile>> wal =
        options_.env->NewWritableFile(options_.name + "/WAL");
    if (!wal.ok()) {
      return wal.status();
    }
    wal_ = std::move(*wal);
  }

  return WriteManifest();
}

Status LsmDb::WriteManifest() {
  std::string manifest;
  PutFixed64(&manifest, next_file_number_.load());
  PutFixed64(&manifest, sequence_.load());
  PutFixed32(&manifest, static_cast<uint32_t>(levels_.size()));
  {
    SharedLockGuard guard(version_lock_);
    for (const auto& level : levels_) {
      PutFixed32(&manifest, static_cast<uint32_t>(level.size()));
      for (const TableMeta& table : level) {
        PutFixed64(&manifest, table.file_number);
        PutFixed64(&manifest, table.file_size);
      }
    }
  }
  StatusOr<std::unique_ptr<WritableFile>> mf =
      options_.env->NewWritableFile(options_.name + "/MANIFEST");
  if (!mf.ok()) {
    return mf.status();
  }
  AQUILA_RETURN_IF_ERROR((*mf)->Append(manifest));
  AQUILA_RETURN_IF_ERROR((*mf)->Sync());
  return (*mf)->Close();
}

Status LsmDb::MaybeCompactLocked() {
  while (static_cast<int>(levels_[0].size()) >= options_.l0_compaction_trigger) {
    AQUILA_RETURN_IF_ERROR(CompactLevelLocked(0));
  }
  for (int level = 1; level + 1 < options_.max_levels; level++) {
    uint64_t bytes = 0;
    for (const TableMeta& table : levels_[level]) {
      bytes += table.file_size;
    }
    while (bytes > LevelMaxBytes(level) && !levels_[level].empty()) {
      AQUILA_RETURN_IF_ERROR(CompactLevelLocked(level));
      bytes = 0;
      for (const TableMeta& table : levels_[level]) {
        bytes += table.file_size;
      }
    }
  }
  return Status::Ok();
}

Status LsmDb::CompactLevelLocked(int level) {
  stats_.compactions.fetch_add(1, std::memory_order_relaxed);
#if AQUILA_TELEMETRY_ENABLED
  static Histogram* compaction_hist =
      telemetry::Registry().GetHistogram("aquila.kvs.compaction_cycles");
  const SimClock& clock = ThisVcpu().clock();
  const uint64_t compact_start = clock.Now();
#endif
  int target = level + 1;
  AQUILA_CHECK(target < options_.max_levels);

  // Pick inputs: all of L0 (overlapping by construction), or the first
  // table of Ln; plus every overlapping table in the target level.
  std::vector<TableMeta> inputs;
  std::string lo, hi;
  if (level == 0) {
    inputs = levels_[0];
  } else {
    inputs.push_back(levels_[level].front());
  }
  for (const TableMeta& table : inputs) {
    if (lo.empty() || Slice(table.smallest).compare(Slice(lo)) < 0) {
      lo = table.smallest;
    }
    if (hi.empty() || Slice(table.largest).compare(Slice(hi)) > 0) {
      hi = table.largest;
    }
  }
  std::vector<TableMeta> target_inputs;
  for (const TableMeta& table : levels_[target]) {
    if (Slice(table.largest).compare(Slice(lo)) >= 0 &&
        Slice(table.smallest).compare(Slice(hi)) <= 0) {
      target_inputs.push_back(table);
    }
  }

  // Merge: iterators ordered newest-to-oldest so the first occurrence of a
  // user key wins.
  std::vector<std::unique_ptr<SstReader::Iterator>> iterators;
  for (const TableMeta& table : inputs) {
    iterators.push_back(std::make_unique<SstReader::Iterator>(table.reader.get()));
    stats_.bytes_compacted.fetch_add(table.file_size, std::memory_order_relaxed);
  }
  for (const TableMeta& table : target_inputs) {
    iterators.push_back(std::make_unique<SstReader::Iterator>(table.reader.get()));
    stats_.bytes_compacted.fetch_add(table.file_size, std::memory_order_relaxed);
  }
  std::vector<TableMeta> outputs;
  AQUILA_RETURN_IF_ERROR(WriteTables(std::move(iterators), target, &outputs));

  // Install: drop inputs, add outputs sorted by smallest key.
  {
    ExclusiveLockGuard guard(version_lock_);
    auto drop = [this](int lvl, const std::vector<TableMeta>& tables) {
      for (const TableMeta& table : tables) {
        auto& level_tables = levels_[lvl];
        level_tables.erase(std::remove_if(level_tables.begin(), level_tables.end(),
                                          [&](const TableMeta& t) {
                                            return t.file_number == table.file_number;
                                          }),
                           level_tables.end());
      }
    };
    drop(level, inputs);
    drop(target, target_inputs);
    for (TableMeta& table : outputs) {
      levels_[target].push_back(std::move(table));
    }
    std::sort(levels_[target].begin(), levels_[target].end(),
              [](const TableMeta& a, const TableMeta& b) {
                return Slice(a.smallest).compare(Slice(b.smallest)) < 0;
              });
  }
  for (const TableMeta& table : inputs) {
    (void)options_.env->DeleteFile(SstPath(table.file_number));
  }
  for (const TableMeta& table : target_inputs) {
    (void)options_.env->DeleteFile(SstPath(table.file_number));
  }
  AQUILA_TELEMETRY_ONLY(telemetry::RecordSpanSince(compaction_hist, clock, compact_start));
  return WriteManifest();
}

Status LsmDb::WriteTables(std::vector<std::unique_ptr<SstReader::Iterator>> inputs,
                          int target_level, std::vector<TableMeta>* outputs) {
  for (auto& it : inputs) {
    it->SeekToFirst();
  }
  bool bottom = true;
  {
    SharedLockGuard guard(version_lock_);
    for (int l = target_level + 1; l < options_.max_levels; l++) {
      if (!levels_[l].empty()) {
        bottom = false;
      }
    }
  }

  std::unique_ptr<WritableFile> file;
  std::unique_ptr<SstBuilder> builder;
  uint64_t file_number = 0;
  std::string last_user_key;
  bool have_last = false;

  auto finish_table = [&]() -> Status {
    if (builder == nullptr || builder->num_entries() == 0) {
      return Status::Ok();
    }
    AQUILA_RETURN_IF_ERROR(builder->Finish());
    uint64_t file_size = builder->file_size();
    AQUILA_RETURN_IF_ERROR(file->Sync());
    AQUILA_RETURN_IF_ERROR(file->Close());
    StatusOr<TableMeta> meta = OpenTable(file_number, file_size);
    if (!meta.ok()) {
      return meta.status();
    }
    outputs->push_back(std::move(*meta));
    builder.reset();
    file.reset();
    return Status::Ok();
  };

  while (true) {
    // Pick the smallest (user key asc, sequence desc); iterator order breaks
    // exact ties (same key+seq cannot occur across live tables).
    int best = -1;
    for (size_t i = 0; i < inputs.size(); i++) {
      if (!inputs[i]->Valid()) {
        continue;
      }
      if (best < 0) {
        best = static_cast<int>(i);
        continue;
      }
      int cmp = inputs[i]->key().compare(inputs[best]->key());
      if (cmp < 0 || (cmp == 0 && inputs[i]->sequence() > inputs[best]->sequence())) {
        best = static_cast<int>(i);
      }
    }
    if (best < 0) {
      break;
    }
    SstReader::Iterator* it = inputs[best].get();
    bool duplicate = have_last && it->key() == Slice(last_user_key);
    if (!duplicate) {
      last_user_key = it->key().ToString();
      have_last = true;
      bool drop = bottom && it->type() == ValueType::kDeletion;
      if (!drop) {
        if (builder == nullptr) {
          file_number = next_file_number_.fetch_add(1, std::memory_order_relaxed);
          StatusOr<std::unique_ptr<WritableFile>> f =
              options_.env->NewWritableFile(SstPath(file_number));
          if (!f.ok()) {
            return f.status();
          }
          file = std::move(*f);
          builder = std::make_unique<SstBuilder>(file.get(), options_.sst);
        }
        builder->Add(it->key(), it->sequence(), it->type(), it->value());
        if (builder->file_size() >= options_.sst_target_bytes) {
          AQUILA_RETURN_IF_ERROR(finish_table());
        }
      }
    }
    it->Next();
  }
  return finish_table();
}

Status LsmDb::Get(const Slice& key, std::string* value, bool* found) {
  stats_.gets.fetch_add(1, std::memory_order_relaxed);
  *found = false;
  bool deleted = false;
  std::shared_ptr<MemTable> memtable;
  {
    SharedLockGuard guard(version_lock_);
    memtable = memtable_;
  }
  {
    ScopedMeasure measure(ThisThreadClock(), CostCategory::kUserWork);
    if (memtable->Get(key, value, &deleted)) {
      stats_.memtable_hits.fetch_add(1, std::memory_order_relaxed);
      *found = !deleted;
      return Status::Ok();
    }
  }
  SharedLockGuard guard(version_lock_);
  // L0: newest table first; tables overlap.
  for (const TableMeta& table : levels_[0]) {
    if (key.compare(Slice(table.smallest)) < 0 || key.compare(Slice(table.largest)) > 0) {
      continue;
    }
    bool table_found;
    AQUILA_RETURN_IF_ERROR(table.reader->Get(key, value, &table_found, &deleted));
    if (table_found) {
      *found = !deleted;
      return Status::Ok();
    }
  }
  // L1+: at most one candidate per level.
  for (size_t level = 1; level < levels_.size(); level++) {
    const auto& tables = levels_[level];
    auto it = std::lower_bound(tables.begin(), tables.end(), key,
                               [](const TableMeta& t, const Slice& k) {
                                 return Slice(t.largest).compare(k) < 0;
                               });
    if (it == tables.end() || key.compare(Slice(it->smallest)) < 0) {
      continue;
    }
    bool table_found;
    AQUILA_RETURN_IF_ERROR(it->reader->Get(key, value, &table_found, &deleted));
    if (table_found) {
      *found = !deleted;
      return Status::Ok();
    }
  }
  return Status::Ok();
}

Status LsmDb::Scan(const Slice& start, int count,
                   const std::function<void(const Slice&, const Slice&)>& visit) {
  // Snapshot the memtable + table set, then k-way merge all sources.
  std::shared_ptr<MemTable> memtable;
  std::vector<TableMeta> tables;
  {
    SharedLockGuard guard(version_lock_);
    memtable = memtable_;
    for (const auto& level : levels_) {
      for (const TableMeta& table : level) {
        tables.push_back(table);
      }
    }
  }
  std::vector<std::unique_ptr<SstReader::Iterator>> iterators;
  iterators.reserve(tables.size());
  for (const TableMeta& table : tables) {
    auto it = std::make_unique<SstReader::Iterator>(table.reader.get());
    it->Seek(start);
    iterators.push_back(std::move(it));
  }
  MemTable::Iterator mem_it(memtable.get());
  mem_it.Seek(start);

  std::string last_user_key;
  bool have_last = false;
  int emitted = 0;
  while (emitted < count) {
    // Candidates: the memtable entry and every table iterator's head.
    int best = -1;
    bool best_is_mem = false;
    Slice best_key;
    uint64_t best_seq = 0;
    if (mem_it.Valid()) {
      best_is_mem = true;
      best_key = mem_it.key();
      best_seq = mem_it.sequence();
    }
    for (size_t i = 0; i < iterators.size(); i++) {
      if (!iterators[i]->Valid()) {
        continue;
      }
      int cmp = (best_is_mem || best >= 0) ? iterators[i]->key().compare(best_key) : -1;
      if ((!best_is_mem && best < 0) || cmp < 0 ||
          (cmp == 0 && iterators[i]->sequence() > best_seq)) {
        best = static_cast<int>(i);
        best_is_mem = false;
        best_key = iterators[i]->key();
        best_seq = iterators[i]->sequence();
      }
    }
    if (!best_is_mem && best < 0) {
      break;  // all sources exhausted
    }

    Slice key = best_is_mem ? mem_it.key() : iterators[best]->key();
    ValueType type = best_is_mem ? mem_it.type() : iterators[best]->type();
    Slice value = best_is_mem ? mem_it.value() : iterators[best]->value();
    bool duplicate = have_last && key == Slice(last_user_key);
    if (!duplicate) {
      last_user_key = key.ToString();
      have_last = true;
      if (type == ValueType::kValue) {
        visit(key, value);
        emitted++;
      }
    }
    if (best_is_mem) {
      mem_it.Next();
    } else {
      iterators[best]->Next();
    }
  }
  return Status::Ok();
}

Status LsmDb::Flush() {
  std::lock_guard<std::mutex> guard(write_mu_);
  AQUILA_RETURN_IF_ERROR(FlushMemTableLocked());
  return MaybeCompactLocked();
}

int LsmDb::NumLevelFiles(int level) const {
  SharedLockGuard guard(version_lock_);
  return static_cast<int>(levels_[level].size());
}

uint64_t LsmDb::TotalSstBytes() const {
  SharedLockGuard guard(version_lock_);
  uint64_t total = 0;
  for (const auto& level : levels_) {
    for (const TableMeta& table : level) {
      total += table.file_size;
    }
  }
  return total;
}

}  // namespace aquila
