// The motivating CarCo scenario of Section 2 of the paper.
//
// A car manufacturer with Customer data in North America, Orders in
// Europe, and Supply data in Asia runs the three-way aggregation query
// Q_ex. Dataflow policies P_N, P_E, P_A restrict what may cross each
// border. The example prints:
//   (a) the traditional cost-based plan — non-compliant (Fig. 1a), with
//       the concrete policy violations;
//   (b) the compliant plan chosen by the compliance-based optimizer
//       (Fig. 1b), with its execution/shipping traits;
// and then executes the compliant plan on synthetic data.

#include <cstdio>

#include "common/rng.h"
#include "core/engine.h"

using namespace cgq;  // NOLINT: example brevity

namespace {

Catalog BuildCatalog() {
  Catalog catalog;
  (void)*catalog.mutable_locations().AddLocation("northamerica");
  (void)*catalog.mutable_locations().AddLocation("europe");
  (void)*catalog.mutable_locations().AddLocation("asia");

  TableDef customer;
  customer.name = "customer";
  customer.schema = Schema({{"custkey", DataType::kInt64},
                            {"name", DataType::kString},
                            {"acctbal", DataType::kDouble},
                            {"mktseg", DataType::kString},
                            {"region", DataType::kString}});
  customer.fragments = {TableFragment{0, 1.0}};
  customer.stats.row_count = 50;
  customer.stats.columns["custkey"] = {50, 1, 50, 8};
  (void)catalog.AddTable(customer);

  TableDef orders;
  orders.name = "orders";
  orders.schema = Schema({{"custkey", DataType::kInt64},
                          {"ordkey", DataType::kInt64},
                          {"totprice", DataType::kDouble}});
  orders.fragments = {TableFragment{1, 1.0}};
  orders.stats.row_count = 200;
  orders.stats.columns["custkey"] = {50, 1, 50, 8};
  orders.stats.columns["ordkey"] = {200, 1, 200, 8};
  (void)catalog.AddTable(orders);

  TableDef supply;
  supply.name = "supply";
  supply.schema = Schema({{"ordkey", DataType::kInt64},
                          {"quantity", DataType::kInt64},
                          {"extprice", DataType::kDouble}});
  supply.fragments = {TableFragment{2, 1.0}};
  supply.stats.row_count = 400;
  supply.stats.columns["ordkey"] = {200, 1, 200, 8};
  (void)catalog.AddTable(supply);
  return catalog;
}

void LoadData(Engine* engine) {
  Rng rng(2021);
  std::vector<Row> customers, orders, supply;
  const char* segs[] = {"commercial", "retail"};
  for (int64_t c = 1; c <= 50; ++c) {
    // Drawn in column order, as the row lists them.
    const double balance = rng.Uniform(0, 9999) / 10.0;
    const char* seg = segs[rng.Uniform(0, 1)];
    const std::string id = std::to_string(c);
    const std::string region = std::to_string(rng.Uniform(1, 5));
    customers.push_back({Value::Int64(c), Value::String("cust-" + id),
                         Value::Double(balance), Value::String(seg),
                         Value::String("r" + region)});
  }
  for (int64_t o = 1; o <= 200; ++o) {
    orders.push_back({Value::Int64(rng.Uniform(1, 50)), Value::Int64(o),
                      Value::Double(rng.Uniform(100, 99999) / 100.0)});
    int64_t lines = rng.Uniform(1, 3);
    for (int64_t i = 0; i < lines; ++i) {
      supply.push_back({Value::Int64(o), Value::Int64(rng.Uniform(1, 50)),
                        Value::Double(rng.Uniform(100, 9999) / 100.0)});
    }
  }
  engine->store().Put(0, "customer", std::move(customers));
  engine->store().Put(1, "orders", std::move(orders));
  engine->store().Put(2, "supply", std::move(supply));
}

}  // namespace

int main() {
  Engine engine(BuildCatalog(), NetworkModel::DefaultGeo(3));

  // P_N: customer data leaves only with the account balance suppressed.
  (void)engine.AddPolicy(
      "northamerica",
      "ship custkey, name, mktseg, region from customer to *");
  // P_E: non-price order data may go to North America; only aggregated
  // order data may go to Asia.
  (void)engine.AddPolicy("europe",
                         "ship custkey, ordkey from orders to northamerica");
  (void)engine.AddPolicy(
      "europe",
      "ship totprice as aggregates sum, avg from orders to asia "
      "group by custkey, ordkey");
  // P_A: only per-order aggregates of supply may go to Europe.
  (void)engine.AddPolicy(
      "asia",
      "ship quantity, extprice as aggregates sum from supply to europe "
      "group by ordkey");

  LoadData(&engine);

  const char* q_ex =
      "SELECT c.name, SUM(o.totprice) AS total_price, "
      "SUM(s.quantity) AS total_quantity "
      "FROM customer AS c, orders AS o, supply AS s "
      "WHERE c.custkey = o.custkey AND o.ordkey = s.ordkey "
      "GROUP BY c.name";

  std::printf("Q_ex:\n  %s\n\n", q_ex);

  // (a) What a traditional cost-based optimizer would do.
  OptimizerOptions traditional;
  traditional.compliant = false;
  auto fig1a = engine.Optimize(q_ex, traditional);
  if (!fig1a.ok()) return 1;
  std::printf("== traditional cost-based plan (Fig. 1a) — %s ==\n%s",
              fig1a->compliant ? "compliant" : "NON-COMPLIANT",
              PlanToString(*fig1a->plan, &engine.catalog().locations())
                  .c_str());
  for (const std::string& v : fig1a->violations) {
    std::printf("  violation: %s\n", v.c_str());
  }

  // (b) The compliance-based optimizer.
  auto fig1b = engine.Optimize(q_ex);
  if (!fig1b.ok()) {
    std::printf("rejected: %s\n", fig1b.status().ToString().c_str());
    return 1;
  }
  std::printf("\n== compliant plan (Fig. 1b) ==\n%s\n",
              PlanToString(*fig1b->plan, &engine.catalog().locations())
                  .c_str());

  auto result = engine.Run(q_ex);
  if (!result.ok()) return 1;
  std::printf("executed compliant plan: %zu result groups, %lld rows "
              "shipped, %.2f ms simulated network time\n",
              result->rows.size(),
              static_cast<long long>(result->metrics.rows_shipped),
              result->metrics.network_ms);
  for (size_t i = 0; i < result->rows.size() && i < 5; ++i) {
    for (const Value& v : result->rows[i]) {
      std::printf("  %s", v.ToString().c_str());
    }
    std::printf("\n");
  }
  std::printf("  ... (first 5 of %zu)\n", result->rows.size());
  return 0;
}
