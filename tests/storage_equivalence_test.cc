// Disk-backed execution is byte-identical to in-memory execution: the
// full 24-cell TPC-H compliance workload ({T, CR} x 12 queries) runs on
// a StorageMode::kDisk store — small blocks, so scans genuinely stream
// block-by-block — through every backend (row, fragment, and
// distributed over loopback servers started with a data_dir), and every
// cell must reproduce the in-memory row reference exactly: same rows,
// same order, same ship accounting. A disk-backed server restart must
// recover its fragments without re-deployment.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "exec/batch_ops.h"
#include "exec/executor.h"
#include "exec/table_store.h"
#include "net/cluster_client.h"
#include "net/network_model.h"
#include "net/server.h"
#include "tpch/tpch.h"

namespace cgq {
namespace {

namespace fs = std::filesystem;

// TPC-H generated once; one in-memory reference store and one
// disk-backed twin under a temp dir with tiny blocks.
struct SharedStores {
  SharedStores() {
    config.scale_factor = 0.002;
    catalog = std::make_unique<Catalog>(*tpch::BuildCatalog(config));
    net = std::make_unique<NetworkModel>(NetworkModel::DefaultGeo(5));
    memory = std::make_unique<TableStore>();
    CGQ_CHECK(tpch::GenerateData(*catalog, config, memory.get()).ok());

    dir = (fs::temp_directory_path() / "cgq-storage-equivalence").string();
    std::error_code ec;
    fs::remove_all(dir, ec);
    disk = std::make_unique<TableStore>(*memory);
    storage::StorageOptions options;
    options.block_target_bytes = 8 * 1024;  // force multi-block fragments
    CGQ_CHECK(disk->EnableDiskStorage(dir, options).ok());
    CGQ_CHECK(disk->storage_mode() == StorageMode::kDisk);
  }

  tpch::TpchConfig config;
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<NetworkModel> net;
  std::unique_ptr<TableStore> memory;
  std::unique_ptr<TableStore> disk;
  std::string dir;
};

SharedStores& Shared() {
  static SharedStores* s = new SharedStores();
  return *s;
}

std::vector<std::string> ExactRows(const QueryResult& r) {
  std::vector<std::string> rows;
  rows.reserve(r.rows.size());
  for (const Row& row : r.rows) {
    std::string s;
    for (const Value& v : row) {
      if (v.is_null()) {
        s += "NULL|";
      } else if (v.is_double()) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g|", v.dbl());
        s += buf;
      } else {
        s += v.ToString() + "|";
      }
    }
    rows.push_back(std::move(s));
  }
  return rows;
}

Result<OptimizedQuery> OptimizeSql(const SharedStores& shared,
                                   const std::string& sql,
                                   const char* policy_set) {
  PolicyCatalog policies(shared.catalog.get());
  CGQ_RETURN_NOT_OK(tpch::InstallPolicySet(policy_set, &policies));
  QueryOptimizer optimizer(shared.catalog.get(), &policies,
                           shared.net.get(), OptimizerOptions());
  return optimizer.Optimize(sql);
}

Result<OptimizedQuery> OptimizeTpch(const SharedStores& shared, int qnum,
                                    const char* policy_set) {
  CGQ_ASSIGN_OR_RETURN(std::string sql, tpch::Query(qnum));
  return OptimizeSql(shared, sql, policy_set);
}

void ExpectSameAccounting(const ExecMetrics& a, const ExecMetrics& b) {
  EXPECT_EQ(a.ships, b.ships);
  EXPECT_EQ(a.rows_shipped, b.rows_shipped);
  EXPECT_EQ(a.bytes_shipped, b.bytes_shipped);
  EXPECT_EQ(a.rows_scanned, b.rows_scanned);
}

std::vector<int> AllQueries() {
  std::vector<int> queries = tpch::QueryNumbers();
  for (int q : tpch::ExtendedQueryNumbers()) queries.push_back(q);
  return queries;
}

// The tentpole acceptance gate for the two in-process backends: every
// cell, disk vs the in-memory row reference.
TEST(StorageEquivalenceTest, DiskMatchesMemoryOnFullWorkload) {
  SharedStores& shared = Shared();
  const struct {
    ExecMode mode;
    const char* name;
  } backends[] = {{ExecMode::kRow, "row"},
                  {ExecMode::kFragment, "fragment"}};

  int cells = 0;
  int64_t total_blocks_read = 0;
  for (const char* policy_set : {"T", "CR"}) {
    for (int qnum : AllQueries()) {
      SCOPED_TRACE(std::string(policy_set) + " Q" + std::to_string(qnum));
      auto q = OptimizeTpch(shared, qnum, policy_set);
      ASSERT_TRUE(q.ok()) << q.status();

      Executor ref_exec(shared.memory.get(), shared.net.get());
      auto ref = ref_exec.Execute(*q);
      ASSERT_TRUE(ref.ok()) << ref.status();
      EXPECT_EQ(ref->metrics.storage_blocks_read, 0);

      for (const auto& backend : backends) {
        SCOPED_TRACE(backend.name);
        ExecutorOptions opts;
        opts.mode = backend.mode;
        Executor disk_exec(shared.disk.get(), shared.net.get(), opts);
        auto disk = disk_exec.Execute(*q);
        ASSERT_TRUE(disk.ok()) << disk.status();
        EXPECT_EQ(ExactRows(*disk), ExactRows(*ref));
        ExpectSameAccounting(disk->metrics, ref->metrics);
        total_blocks_read += disk->metrics.storage_blocks_read;
      }
      ++cells;
    }
  }
  EXPECT_EQ(cells, 24);
  // With 8KB blocks the workload cannot run without streaming blocks —
  // zero here would mean disk mode silently fell back to RAM.
  EXPECT_GT(total_blocks_read, 0);
}

// Distributed backend over disk-backed loopback servers, plus the
// restart contract: new server processes pointed at the same data dirs
// recover every fragment with no re-deployment, and the whole workload
// still matches the reference.
TEST(StorageEquivalenceTest, DiskBackedServersMatchAndSurviveRestart) {
  SharedStores& shared = Shared();
  const std::vector<std::vector<LocationId>> hosting = {{0, 1}, {2, 3}, {4}};
  std::vector<std::string> dirs;
  for (size_t i = 0; i < hosting.size(); ++i) {
    std::string d = (fs::temp_directory_path() /
                     ("cgq-storage-equivalence-srv" + std::to_string(i)))
                        .string();
    std::error_code ec;
    fs::remove_all(d, ec);
    dirs.push_back(d);
  }

  auto start_servers = [&](std::vector<std::unique_ptr<net::SiteServer>>*
                               servers,
                           std::map<LocationId, net::Endpoint>* endpoints) {
    for (size_t i = 0; i < hosting.size(); ++i) {
      net::SiteServer::Options o;
      o.locations = hosting[i];
      o.data_dir = dirs[i];
      servers->push_back(std::make_unique<net::SiteServer>(o));
      ASSERT_TRUE(servers->back()->Start().ok());
      for (LocationId loc : hosting[i]) {
        (*endpoints)[loc] = {"127.0.0.1", servers->back()->port()};
      }
    }
  };

  auto run_cells = [&](net::ClusterClient* cluster, const char* what) {
    for (const char* policy_set : {"T", "CR"}) {
      for (int qnum : AllQueries()) {
        SCOPED_TRACE(std::string(what) + " " + policy_set + " Q" +
                     std::to_string(qnum));
        auto q = OptimizeTpch(shared, qnum, policy_set);
        ASSERT_TRUE(q.ok()) << q.status();

        Executor ref_exec(shared.memory.get(), shared.net.get());
        auto ref = ref_exec.Execute(*q);
        ASSERT_TRUE(ref.ok()) << ref.status();

        ExecutorOptions opts;
        opts.mode = ExecMode::kDistributed;
        opts.cluster = cluster;
        Executor dist_exec(shared.memory.get(), shared.net.get(), opts);
        auto dist = dist_exec.Execute(*q);
        ASSERT_TRUE(dist.ok()) << dist.status();
        EXPECT_EQ(ExactRows(*dist), ExactRows(*ref));
        ExpectSameAccounting(dist->metrics, ref->metrics);
      }
    }
  };

  {
    std::vector<std::unique_ptr<net::SiteServer>> servers;
    std::map<LocationId, net::Endpoint> endpoints;
    start_servers(&servers, &endpoints);
    net::ClusterClient cluster;
    ASSERT_TRUE(cluster.Connect(endpoints).ok());
    ASSERT_TRUE(cluster.Deploy(*shared.memory).ok());
    run_cells(&cluster, "first-generation");
    for (auto& server : servers) server->Stop();
  }

  // Second generation: same dirs, fresh processes, NO Deploy.
  std::vector<std::unique_ptr<net::SiteServer>> servers;
  std::map<LocationId, net::Endpoint> endpoints;
  start_servers(&servers, &endpoints);
  net::ClusterClient cluster;
  ASSERT_TRUE(cluster.Connect(endpoints).ok());
  run_cells(&cluster, "post-restart");
  for (auto& server : servers) server->Stop();

  for (const std::string& d : dirs) {
    std::error_code ec;
    fs::remove_all(d, ec);
  }
}

/// The parent of every Scan under `node`, in pre-order.
void ScanParents(const PlanNode& node, std::vector<const PlanNode*>* out) {
  for (const PlanNodePtr& child : node.children()) {
    if (child->kind() == PlanKind::kScan) out->push_back(&node);
    ScanParents(*child, out);
  }
}

/// Runs `q` on the disk store through the row and fragment backends
/// and expects the in-memory row reference's rows and ship accounting.
void ExpectDiskMatchesMemory(const OptimizedQuery& q) {
  SharedStores& shared = Shared();
  Executor ref_exec(shared.memory.get(), shared.net.get());
  auto ref = ref_exec.Execute(q);
  ASSERT_TRUE(ref.ok()) << ref.status();
  for (ExecMode mode : {ExecMode::kRow, ExecMode::kFragment}) {
    SCOPED_TRACE(mode == ExecMode::kRow ? "row" : "fragment");
    ExecutorOptions opts;
    opts.mode = mode;
    Executor disk_exec(shared.disk.get(), shared.net.get(), opts);
    auto disk = disk_exec.Execute(q);
    ASSERT_TRUE(disk.ok()) << disk.status();
    EXPECT_EQ(ExactRows(*disk), ExactRows(*ref));
    ExpectSameAccounting(disk->metrics, ref->metrics);
    EXPECT_GT(disk->metrics.storage_blocks_read, 0);
  }
}

// Scans that feed a Join or a SHIP directly, with no Project above them,
// decode every column; their results still match memory.
TEST(StorageEquivalenceTest, ScansUnderJoinOrShipMatchMemory) {
  SharedStores& shared = Shared();
  const char* queries[] = {
      "SELECT n.nationkey, n.name, n.regionkey, r.regionkey, r.name "
      "FROM nation n, region r WHERE n.regionkey = r.regionkey",
      "SELECT s.suppkey, n.nationkey, n.name, n.regionkey "
      "FROM supplier s, nation n WHERE s.nationkey = n.nationkey",
  };
  std::vector<PlanKind> parents;
  for (const char* sql : queries) {
    SCOPED_TRACE(sql);
    auto q = OptimizeSql(shared, sql, "CR");
    ASSERT_TRUE(q.ok()) << q.status();
    std::vector<const PlanNode*> scan_parents;
    ScanParents(*q->plan, &scan_parents);
    for (const PlanNode* parent : scan_parents) {
      parents.push_back(parent->kind());
    }
    ExpectDiskMatchesMemory(*q);
  }
  EXPECT_NE(std::find(parents.begin(), parents.end(), PlanKind::kJoin),
            parents.end());
  EXPECT_NE(std::find(parents.begin(), parents.end(), PlanKind::kShip),
            parents.end());
}

// The planner never builds a scan that keeps no column: a relation that
// contributes only its row count keeps its first column
// (plan/builder.cc), so COUNT(*) scans one column. A fragment built by
// hand as Project[] over a disk scan decodes no column at all and still
// yields every row, in the batches a memory scan yields.
TEST(StorageEquivalenceTest, NarrowestDiskScansKeepEveryRow) {
  SharedStores& shared = Shared();
  auto q = OptimizeSql(shared, "SELECT COUNT(*) FROM lineitem", "CR");
  ASSERT_TRUE(q.ok()) << q.status();
  std::vector<const PlanNode*> scan_parents;
  ScanParents(*q->plan, &scan_parents);
  ASSERT_FALSE(scan_parents.empty());
  for (const PlanNode* parent : scan_parents) {
    ASSERT_EQ(parent->kind(), PlanKind::kProject);
    EXPECT_EQ(parent->project_ids.size(), 1u);
  }
  ExpectDiskMatchesMemory(*q);

  auto project = std::make_shared<PlanNode>(*scan_parents.front());
  project->project_ids.clear();
  project->project_names.clear();
  project->outputs.clear();
  const PlanNode& scan = *project->child(0);
  struct Drained {
    std::vector<size_t> batch_rows;
    FragmentCounters counters;
  };
  auto drain = [&](const TableStore* store) -> Result<Drained> {
    Drained out;
    exec_internal::BatchOpEnv env;
    env.store = store;
    env.counters = &out.counters;
    CGQ_ASSIGN_OR_RETURN(exec_internal::BatchOpPtr op,
                         exec_internal::BuildBatchOp(*project, env));
    int64_t rows = 0;
    CGQ_RETURN_NOT_OK(exec_internal::DrainBatchOp(
        op.get(), nullptr, &rows, [&](vec::ColumnBatch batch) {
          if (batch.NumColumns() != 0) {
            return Status::Internal("a column was decoded");
          }
          out.batch_rows.push_back(batch.NumRows());
          return Status::OK();
        }));
    return out;
  };
  auto memory = drain(shared.memory.get());
  ASSERT_TRUE(memory.ok()) << memory.status();
  auto disk = drain(shared.disk.get());
  ASSERT_TRUE(disk.ok()) << disk.status();
  EXPECT_EQ(disk->batch_rows, memory->batch_rows);
  EXPECT_EQ(disk->counters.rows_scanned, memory->counters.rows_scanned);
  EXPECT_EQ(static_cast<size_t>(disk->counters.rows_scanned),
            *shared.disk->FragmentRows(scan.scan_location, scan.table));
  EXPECT_EQ(memory->counters.blocks_read, 0);
  EXPECT_GT(disk->counters.blocks_read, 1);
}

// Round trip back to memory mode: DisableDiskStorage materializes every
// fragment and the store keeps answering identically.
TEST(StorageEquivalenceTest, DisableDiskStorageRoundTrips) {
  SharedStores& shared = Shared();
  TableStore store(*shared.memory);
  std::string dir =
      (fs::temp_directory_path() / "cgq-storage-equivalence-rt").string();
  std::error_code ec;
  fs::remove_all(dir, ec);
  ASSERT_TRUE(store.EnableDiskStorage(dir).ok());
  ASSERT_TRUE(store.DisableDiskStorage().ok());
  ASSERT_TRUE(store.storage_mode() == StorageMode::kMemory);

  auto q = OptimizeTpch(shared, tpch::QueryNumbers().front(), "CR");
  ASSERT_TRUE(q.ok()) << q.status();
  Executor ref_exec(shared.memory.get(), shared.net.get());
  auto ref = ref_exec.Execute(*q);
  ASSERT_TRUE(ref.ok()) << ref.status();
  Executor rt_exec(&store, shared.net.get());
  auto rt = rt_exec.Execute(*q);
  ASSERT_TRUE(rt.ok()) << rt.status();
  EXPECT_EQ(ExactRows(*rt), ExactRows(*ref));
  fs::remove_all(dir, ec);
}

// --- The memory cursor -------------------------------------------------------
//
// A memory-mode TableStore::Scan shares the fragment's cached column
// runs, so it must behave like a disk cursor: masks narrow it, a mask of
// the wrong width is refused, it is a snapshot, and a ragged fragment
// comes back one same-width run at a time.

std::vector<Row> MixedRows(int64_t n) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < n; ++i) {
    const std::string n = std::to_string(i);
    Value name = i % 3 == 0 ? Value::Null() : Value::String("s" + n);
    rows.push_back({Value::Int64(i), std::move(name),
                    Value::Double(0.5 * static_cast<double>(i))});
  }
  return rows;
}

Result<std::vector<vec::ColumnBatch>> DrainCursor(
    const TableStore& store, const std::string& table,
    const vec::ColumnMask* keep) {
  CGQ_ASSIGN_OR_RETURN(TableStore::Cursor cursor, store.Scan(0, table, keep));
  std::vector<vec::ColumnBatch> out;
  vec::ColumnBatch batch;
  while (true) {
    CGQ_ASSIGN_OR_RETURN(bool more, cursor.Next(&batch));
    if (!more) return out;
    out.push_back(std::move(batch));
  }
}

TEST(MemoryCursorTest, MaskYieldsExactlyTheKeptColumns) {
  TableStore store;
  ASSERT_TRUE(store.Put(0, "t", MixedRows(50)).ok());
  auto full = DrainCursor(store, "t", nullptr);
  ASSERT_TRUE(full.ok()) << full.status();
  const vec::ColumnMask keep = {true, false, true};
  auto masked = DrainCursor(store, "t", &keep);
  ASSERT_TRUE(masked.ok()) << masked.status();
  ASSERT_EQ(full->size(), 1u);
  ASSERT_EQ(masked->size(), 1u);
  const vec::ColumnBatch& f = full->front();
  const vec::ColumnBatch& m = masked->front();
  ASSERT_EQ(f.NumColumns(), 3u);
  ASSERT_EQ(m.NumColumns(), 2u);
  ASSERT_EQ(m.NumRows(), 50u);
  ASSERT_EQ(m.sel, f.sel);
  const std::vector<Row> f_rows = vec::ToRowBatch(f).rows;
  const std::vector<Row> m_rows = vec::ToRowBatch(m).rows;
  for (size_t r = 0; r < f_rows.size(); ++r) {
    EXPECT_TRUE(m_rows[r][0].StructurallyEquals(f_rows[r][0])) << r;
    EXPECT_TRUE(m_rows[r][1].StructurallyEquals(f_rows[r][2])) << r;
  }
  // Both cursors share the cached columns rather than copies.
  EXPECT_EQ(m.columns[0].get(), f.columns[0].get());
  EXPECT_EQ(m.columns[1].get(), f.columns[2].get());
}

TEST(MemoryCursorTest, MaskOfAnotherWidthIsRefused) {
  TableStore store;
  ASSERT_TRUE(store.Put(0, "t", MixedRows(5)).ok());
  const vec::ColumnMask narrow = {true, false};
  auto cursor = store.Scan(0, "t", &narrow);
  ASSERT_TRUE(cursor.ok()) << cursor.status();
  vec::ColumnBatch batch;
  Result<bool> next = cursor->Next(&batch);
  EXPECT_TRUE(next.status().IsInvalidArgument()) << next.status();

  // The fragment runtime reports it as the stored-width error: a nation
  // fragment stored one column short of its schema, scanned under a
  // Project (so with a mask of the schema's width).
  SharedStores& shared = Shared();
  auto q = OptimizeSql(shared, "SELECT name FROM nation", "CR");
  ASSERT_TRUE(q.ok()) << q.status();
  std::vector<const PlanNode*> scan_parents;
  ScanParents(*q->plan, &scan_parents);
  ASSERT_FALSE(scan_parents.empty());
  const PlanNode& project = *scan_parents.front();
  ASSERT_EQ(project.kind(), PlanKind::kProject);
  const PlanNode& scan = *project.child(0);
  auto rows = shared.memory->Get(scan.scan_location, scan.table);
  ASSERT_TRUE(rows.ok()) << rows.status();
  std::vector<Row> short_rows = **rows;
  for (Row& row : short_rows) row.pop_back();
  TableStore broken;
  ASSERT_TRUE(broken.Put(scan.scan_location, scan.table, short_rows).ok());
  exec_internal::BatchOpEnv env;
  env.store = &broken;
  FragmentCounters counters;
  env.counters = &counters;
  auto op = exec_internal::BuildBatchOp(project, env);
  ASSERT_TRUE(op.ok()) << op.status();
  int64_t rows_out = 0;
  Status drained = exec_internal::DrainBatchOp(
      op->get(), nullptr, &rows_out,
      [](vec::ColumnBatch) { return Status::OK(); });
  EXPECT_TRUE(drained.IsInternal()) << drained;
  EXPECT_NE(drained.message().find("stored row width mismatch"),
            std::string::npos)
      << drained;
}

TEST(MemoryCursorTest, CursorIsASnapshotAcrossAppend) {
  TableStore store;
  ASSERT_TRUE(store.Put(0, "t", MixedRows(4)).ok());
  auto cursor = store.Scan(0, "t");
  ASSERT_TRUE(cursor.ok()) << cursor.status();
  EXPECT_EQ(cursor->total_rows(), 4u);
  ASSERT_TRUE(store.Append(0, "t", MixedRows(1).front()).ok());

  std::vector<Row> seen, chunk;
  while (true) {
    auto more = cursor->Next(&chunk);
    ASSERT_TRUE(more.ok()) << more.status();
    if (!*more) break;
    seen.insert(seen.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(seen.size(), 4u);
  auto after = DrainCursor(store, "t", nullptr);
  ASSERT_TRUE(after.ok()) << after.status();
  ASSERT_EQ(after->size(), 1u);
  EXPECT_EQ(after->front().NumRows(), 5u);
}

TEST(MemoryCursorTest, RaggedFragmentYieldsOneBatchPerWidthRun) {
  std::vector<Row> rows = {
      {Value::Int64(1), Value::Int64(2)},
      {Value::Int64(3), Value::Int64(4)},
      {Value::Int64(5), Value::Int64(6), Value::Int64(7)},
      {Value::Int64(8), Value::Int64(9), Value::Int64(10)},
      {Value::Int64(11), Value::Int64(12), Value::Int64(13)},
      {Value::Int64(14), Value::Int64(15)},
  };
  TableStore store;
  ASSERT_TRUE(store.Put(0, "t", rows).ok());
  auto batches = DrainCursor(store, "t", nullptr);
  ASSERT_TRUE(batches.ok()) << batches.status();
  ASSERT_EQ(batches->size(), 3u);
  const size_t want_rows[] = {2, 3, 1};
  const size_t want_cols[] = {2, 3, 2};
  std::vector<Row> back;
  for (size_t b = 0; b < 3; ++b) {
    EXPECT_EQ((*batches)[b].NumRows(), want_rows[b]) << b;
    EXPECT_EQ((*batches)[b].NumColumns(), want_cols[b]) << b;
    for (Row& row : vec::ToRowBatch((*batches)[b]).rows) {
      back.push_back(std::move(row));
    }
  }
  ASSERT_EQ(back.size(), rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    ASSERT_EQ(back[r].size(), rows[r].size()) << r;
    for (size_t c = 0; c < rows[r].size(); ++c) {
      EXPECT_TRUE(back[r][c].StructurallyEquals(rows[r][c])) << r;
    }
  }
}

}  // namespace
}  // namespace cgq
