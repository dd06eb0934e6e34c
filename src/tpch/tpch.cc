#include "tpch/tpch.h"

#include <cmath>

#include "types/date.h"

namespace cgq {
namespace tpch {

namespace {

ColumnStats Num(double ndv, double min, double max, double width = 8) {
  ColumnStats s;
  s.distinct_count = ndv;
  s.min = min;
  s.max = max;
  s.avg_width = width;
  return s;
}

ColumnStats Str(double ndv, double width) {
  ColumnStats s;
  s.distinct_count = ndv;
  s.avg_width = width;
  return s;
}

constexpr int64_t kMinOrderDate = 8035;   // 1992-01-01
constexpr int64_t kMaxOrderDate = 10440;  // 1998-08-02

}  // namespace

double RowsOf(const std::string& table, double sf) {
  if (table == "region") return 5;
  if (table == "nation") return 25;
  if (table == "supplier") return std::max(1.0, 10000 * sf);
  if (table == "part") return std::max(1.0, 200000 * sf);
  if (table == "partsupp") return std::max(1.0, 800000 * sf);
  if (table == "customer") return std::max(1.0, 150000 * sf);
  if (table == "orders") return std::max(1.0, 1500000 * sf);
  if (table == "lineitem") return std::max(1.0, 6001215 * sf);
  return 0;
}

Result<Catalog> BuildCatalog(const TpchConfig& config) {
  Catalog catalog;
  if (config.num_locations < 5) {
    return Status::InvalidArgument("TPC-H setup needs at least 5 locations");
  }
  for (size_t i = 1; i <= config.num_locations; ++i) {
    const std::string n = std::to_string(i);
    CGQ_RETURN_NOT_OK(
        catalog.mutable_locations().AddLocation("l" + n).status());
  }
  const double sf = config.scale_factor;

  auto add = [&](TableDef def, LocationId home) -> Status {
    def.fragments = {TableFragment{home, 1.0}};
    def.stats.row_count = RowsOf(def.name, sf);
    return catalog.AddTable(std::move(def));
  };

  {
    TableDef t;
    t.name = "region";
    t.schema = Schema({{"regionkey", DataType::kInt64},
                       {"name", DataType::kString}});
    t.stats.columns["regionkey"] = Num(5, 0, 4);
    t.stats.columns["name"] = Str(5, 11);
    CGQ_RETURN_NOT_OK(add(t, 4));
  }
  {
    TableDef t;
    t.name = "nation";
    t.schema = Schema({{"nationkey", DataType::kInt64},
                       {"name", DataType::kString},
                       {"regionkey", DataType::kInt64}});
    t.stats.columns["nationkey"] = Num(25, 0, 24);
    t.stats.columns["name"] = Str(25, 12);
    t.stats.columns["regionkey"] = Num(5, 0, 4);
    CGQ_RETURN_NOT_OK(add(t, 4));
  }
  {
    TableDef t;
    t.name = "supplier";
    t.schema = Schema({{"suppkey", DataType::kInt64},
                       {"name", DataType::kString},
                       {"address", DataType::kString},
                       {"nationkey", DataType::kInt64},
                       {"phone", DataType::kString},
                       {"acctbal", DataType::kDouble}});
    double n = RowsOf("supplier", sf);
    t.stats.columns["suppkey"] = Num(n, 1, n);
    t.stats.columns["name"] = Str(n, 18);
    t.stats.columns["address"] = Str(n, 24);
    t.stats.columns["nationkey"] = Num(25, 0, 24);
    t.stats.columns["phone"] = Str(n, 15);
    t.stats.columns["acctbal"] = Num(n, -999.99, 9999.99);
    CGQ_RETURN_NOT_OK(add(t, 1));
  }
  {
    TableDef t;
    t.name = "part";
    t.schema = Schema({{"partkey", DataType::kInt64},
                       {"name", DataType::kString},
                       {"mfgr", DataType::kString},
                       {"brand", DataType::kString},
                       {"type", DataType::kString},
                       {"size", DataType::kInt64},
                       {"container", DataType::kString},
                       {"retailprice", DataType::kDouble}});
    double n = RowsOf("part", sf);
    t.stats.columns["partkey"] = Num(n, 1, n);
    t.stats.columns["name"] = Str(n, 32);
    t.stats.columns["mfgr"] = Str(5, 14);
    t.stats.columns["brand"] = Str(25, 10);
    t.stats.columns["type"] = Str(150, 20);
    t.stats.columns["size"] = Num(50, 1, 50);
    t.stats.columns["container"] = Str(40, 10);
    t.stats.columns["retailprice"] = Num(n, 900, 2100);
    CGQ_RETURN_NOT_OK(add(t, 2));
  }
  {
    TableDef t;
    t.name = "partsupp";
    t.schema = Schema({{"partkey", DataType::kInt64},
                       {"suppkey", DataType::kInt64},
                       {"availqty", DataType::kInt64},
                       {"supplycost", DataType::kDouble}});
    t.stats.columns["partkey"] = Num(RowsOf("part", sf), 1, RowsOf("part", sf));
    t.stats.columns["suppkey"] =
        Num(RowsOf("supplier", sf), 1, RowsOf("supplier", sf));
    t.stats.columns["availqty"] = Num(9999, 1, 9999);
    t.stats.columns["supplycost"] = Num(99901, 1, 1000);
    CGQ_RETURN_NOT_OK(add(t, 1));
  }
  {
    TableDef t;
    t.name = "customer";
    t.schema = Schema({{"custkey", DataType::kInt64},
                       {"name", DataType::kString},
                       {"address", DataType::kString},
                       {"nationkey", DataType::kInt64},
                       {"phone", DataType::kString},
                       {"acctbal", DataType::kDouble},
                       {"mktsegment", DataType::kString}});
    double n = RowsOf("customer", sf);
    t.stats.columns["custkey"] = Num(n, 1, n);
    t.stats.columns["name"] = Str(n, 18);
    t.stats.columns["address"] = Str(n, 24);
    t.stats.columns["nationkey"] = Num(25, 0, 24);
    t.stats.columns["phone"] = Str(n, 15);
    t.stats.columns["acctbal"] = Num(n, -999.99, 9999.99);
    t.stats.columns["mktsegment"] = Str(5, 10);
    CGQ_RETURN_NOT_OK(add(t, 0));
  }
  {
    TableDef t;
    t.name = "orders";
    t.schema = Schema({{"orderkey", DataType::kInt64},
                       {"custkey", DataType::kInt64},
                       {"orderstatus", DataType::kString},
                       {"totalprice", DataType::kDouble},
                       {"orderdate", DataType::kDate},
                       {"orderpriority", DataType::kString},
                       {"shippriority", DataType::kInt64}});
    double n = RowsOf("orders", sf);
    t.stats.columns["orderkey"] = Num(n, 1, n);
    t.stats.columns["custkey"] =
        Num(RowsOf("customer", sf), 1, RowsOf("customer", sf));
    t.stats.columns["orderstatus"] = Str(3, 1);
    t.stats.columns["totalprice"] = Num(n, 850, 550000);
    t.stats.columns["orderdate"] =
        Num(2406, kMinOrderDate, kMaxOrderDate);
    t.stats.columns["orderpriority"] = Str(5, 15);
    t.stats.columns["shippriority"] = Num(1, 0, 0);
    CGQ_RETURN_NOT_OK(add(t, 0));
  }
  {
    TableDef t;
    t.name = "lineitem";
    t.schema = Schema({{"orderkey", DataType::kInt64},
                       {"partkey", DataType::kInt64},
                       {"suppkey", DataType::kInt64},
                       {"linenumber", DataType::kInt64},
                       {"quantity", DataType::kInt64},
                       {"extendedprice", DataType::kDouble},
                       {"discount", DataType::kDouble},
                       {"tax", DataType::kDouble},
                       {"returnflag", DataType::kString},
                       {"linestatus", DataType::kString},
                       {"shipdate", DataType::kDate},
                       {"commitdate", DataType::kDate},
                       {"receiptdate", DataType::kDate},
                       {"shipmode", DataType::kString}});
    double n = RowsOf("lineitem", sf);
    t.stats.columns["orderkey"] =
        Num(RowsOf("orders", sf), 1, RowsOf("orders", sf));
    t.stats.columns["partkey"] =
        Num(RowsOf("part", sf), 1, RowsOf("part", sf));
    t.stats.columns["suppkey"] =
        Num(RowsOf("supplier", sf), 1, RowsOf("supplier", sf));
    t.stats.columns["linenumber"] = Num(7, 1, 7);
    t.stats.columns["quantity"] = Num(50, 1, 50);
    t.stats.columns["extendedprice"] = Num(n, 900, 105000);
    t.stats.columns["discount"] = Num(11, 0, 0.10);
    t.stats.columns["tax"] = Num(9, 0, 0.08);
    t.stats.columns["returnflag"] = Str(3, 1);
    t.stats.columns["linestatus"] = Str(2, 1);
    t.stats.columns["shipdate"] =
        Num(2526, kMinOrderDate + 1, kMaxOrderDate + 121);
    t.stats.columns["commitdate"] =
        Num(2466, kMinOrderDate + 30, kMaxOrderDate + 90);
    t.stats.columns["receiptdate"] =
        Num(2554, kMinOrderDate + 1, kMaxOrderDate + 151);
    t.stats.columns["shipmode"] = Str(7, 8);
    CGQ_RETURN_NOT_OK(add(t, 3));
  }
  return catalog;
}

}  // namespace tpch
}  // namespace cgq
