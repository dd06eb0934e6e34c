#include "tpch/tpch.h"

namespace cgq {
namespace tpch {

namespace {

// Q2 with its correlated MIN-supplycost subquery, decorrelated by the
// query planner into a join with Γ_{partkey; MIN(supplycost)} over the
// inner join (8 join operators after the rewrite; the paper reports 13
// after Calcite's decorrelation).
constexpr const char* kQ2 = R"sql(
SELECT s.acctbal, s.name, n.name AS nation, p.partkey, p.mfgr
FROM part p, supplier s, partsupp ps, nation n, region r
WHERE p.partkey = ps.partkey AND s.suppkey = ps.suppkey
  AND p.size = 15 AND p.type LIKE '%BRASS'
  AND s.nationkey = n.nationkey AND n.regionkey = r.regionkey
  AND r.name = 'EUROPE'
  AND ps.supplycost = (
    SELECT MIN(ps2.supplycost)
    FROM partsupp ps2, supplier s2, nation n2, region r2
    WHERE ps2.partkey = p.partkey AND s2.suppkey = ps2.suppkey
      AND s2.nationkey = n2.nationkey AND n2.regionkey = r2.regionkey
      AND r2.name = 'EUROPE')
ORDER BY acctbal DESC LIMIT 100
)sql";

constexpr const char* kQ3 = R"sql(
SELECT l.orderkey, SUM(l.extendedprice * (1 - l.discount)) AS revenue,
       o.orderdate, o.shippriority
FROM customer c, orders o, lineitem l
WHERE c.mktsegment = 'BUILDING'
  AND c.custkey = o.custkey AND l.orderkey = o.orderkey
  AND o.orderdate < DATE '1995-03-15'
  AND l.shipdate > DATE '1995-03-15'
GROUP BY l.orderkey, o.orderdate, o.shippriority
ORDER BY revenue DESC, orderdate LIMIT 10
)sql";

constexpr const char* kQ5 = R"sql(
SELECT n.name, SUM(l.extendedprice * (1 - l.discount)) AS revenue
FROM customer c, orders o, lineitem l, supplier s, nation n, region r
WHERE c.custkey = o.custkey AND l.orderkey = o.orderkey
  AND l.suppkey = s.suppkey AND c.nationkey = s.nationkey
  AND s.nationkey = n.nationkey AND n.regionkey = r.regionkey
  AND r.name = 'ASIA'
  AND o.orderdate >= DATE '1994-01-01'
  AND o.orderdate < DATE '1995-01-01'
GROUP BY n.name
ORDER BY revenue DESC
)sql";

// Q8 without the EXTRACT(year) grouping and CASE expression: national
// market share reduced to volume per supplier nation.
constexpr const char* kQ8 = R"sql(
SELECT n2.name, SUM(l.extendedprice * (1 - l.discount)) AS volume
FROM part p, supplier s, lineitem l, orders o, customer c,
     nation n1, nation n2, region r
WHERE p.partkey = l.partkey AND s.suppkey = l.suppkey
  AND l.orderkey = o.orderkey AND o.custkey = c.custkey
  AND c.nationkey = n1.nationkey AND n1.regionkey = r.regionkey
  AND r.name = 'AMERICA'
  AND s.nationkey = n2.nationkey
  AND o.orderdate BETWEEN DATE '1995-01-01' AND DATE '1996-12-31'
  AND p.type = 'ECONOMY ANODIZED STEEL'
GROUP BY n2.name
)sql";

// Q9 without the EXTRACT(year) grouping: profit per supplier nation.
constexpr const char* kQ9 = R"sql(
SELECT n.name,
       SUM(l.extendedprice * (1 - l.discount) - ps.supplycost * l.quantity)
           AS profit
FROM part p, supplier s, lineitem l, partsupp ps, orders o, nation n
WHERE s.suppkey = l.suppkey AND ps.suppkey = l.suppkey
  AND ps.partkey = l.partkey AND p.partkey = l.partkey
  AND o.orderkey = l.orderkey AND s.nationkey = n.nationkey
  AND p.name LIKE '%green%'
GROUP BY n.name
)sql";

constexpr const char* kQ10 = R"sql(
SELECT c.custkey, c.name, SUM(l.extendedprice * (1 - l.discount)) AS revenue,
       c.acctbal, n.name AS nation, c.address, c.phone
FROM customer c, orders o, lineitem l, nation n
WHERE c.custkey = o.custkey AND l.orderkey = o.orderkey
  AND o.orderdate >= DATE '1993-10-01'
  AND o.orderdate < DATE '1994-01-01'
  AND l.returnflag = 'R'
  AND c.nationkey = n.nationkey
GROUP BY c.custkey, c.name, c.acctbal, c.phone, n.name, c.address
ORDER BY revenue DESC LIMIT 20
)sql";

// ---- Extended workload (not part of the paper's figures) ----
// Adapted to the dialect: COUNT(*) -> COUNT(column), no CASE/EXTRACT.

constexpr const char* kQ1 = R"sql(
SELECT l.returnflag, l.linestatus,
       SUM(l.quantity) AS sum_qty,
       SUM(l.extendedprice) AS sum_base_price,
       SUM(l.extendedprice * (1 - l.discount)) AS sum_disc_price,
       AVG(l.quantity) AS avg_qty,
       AVG(l.extendedprice) AS avg_price,
       AVG(l.discount) AS avg_disc,
       COUNT(l.orderkey) AS count_order
FROM lineitem l
WHERE l.shipdate <= DATE '1998-09-02'
GROUP BY l.returnflag, l.linestatus
ORDER BY returnflag, linestatus
)sql";

// Q4 with its correlated EXISTS (decorrelated into a semi-join).
constexpr const char* kQ4 = R"sql(
SELECT o.orderpriority, COUNT(*) AS order_count
FROM orders o
WHERE o.orderdate >= DATE '1993-07-01'
  AND o.orderdate < DATE '1993-10-01'
  AND EXISTS (
    SELECT l.orderkey FROM lineitem l
    WHERE l.orderkey = o.orderkey AND l.commitdate < l.receiptdate)
GROUP BY o.orderpriority
ORDER BY orderpriority
)sql";

constexpr const char* kQ6 = R"sql(
SELECT SUM(l.extendedprice * l.discount) AS revenue
FROM lineitem l
WHERE l.shipdate >= DATE '1994-01-01' AND l.shipdate < DATE '1995-01-01'
  AND l.discount BETWEEN 0.05 AND 0.07 AND l.quantity < 24
)sql";

constexpr const char* kQ12 = R"sql(
SELECT l.shipmode, COUNT(o.orderkey) AS order_count
FROM orders o, lineitem l
WHERE o.orderkey = l.orderkey
  AND l.shipmode IN ('MAIL', 'SHIP')
  AND l.commitdate < l.receiptdate AND l.shipdate < l.commitdate
  AND l.receiptdate >= DATE '1994-01-01'
  AND l.receiptdate < DATE '1995-01-01'
GROUP BY l.shipmode
ORDER BY shipmode
)sql";

constexpr const char* kQ14 = R"sql(
SELECT SUM(l.extendedprice * (1 - l.discount)) AS promo_revenue
FROM lineitem l, part p
WHERE l.partkey = p.partkey AND p.type LIKE 'PROMO%'
  AND l.shipdate >= DATE '1995-09-01' AND l.shipdate < DATE '1995-10-01'
)sql";

constexpr const char* kQ19 = R"sql(
SELECT SUM(l.extendedprice * (1 - l.discount)) AS revenue
FROM lineitem l, part p
WHERE p.partkey = l.partkey
  AND ((p.brand = 'Brand#12' AND l.quantity BETWEEN 1 AND 11
        AND p.size BETWEEN 1 AND 5)
    OR (p.brand = 'Brand#23' AND l.quantity BETWEEN 10 AND 20
        AND p.size BETWEEN 1 AND 10)
    OR (p.brand = 'Brand#34' AND l.quantity BETWEEN 20 AND 30
        AND p.size BETWEEN 1 AND 15))
  AND l.shipmode IN ('AIR', 'REG AIR')
)sql";

}  // namespace

Result<std::string> Query(int number) {
  switch (number) {
    case 1:
      return std::string(kQ1);
    case 4:
      return std::string(kQ4);
    case 6:
      return std::string(kQ6);
    case 12:
      return std::string(kQ12);
    case 14:
      return std::string(kQ14);
    case 19:
      return std::string(kQ19);
    case 2:
      return std::string(kQ2);
    case 3:
      return std::string(kQ3);
    case 5:
      return std::string(kQ5);
    case 8:
      return std::string(kQ8);
    case 9:
      return std::string(kQ9);
    case 10:
      return std::string(kQ10);
    default:
      return Status::NotFound("TPC-H Q" + std::to_string(number) +
                              " is not part of the workload");
  }
}

std::vector<int> QueryNumbers() { return {2, 3, 5, 8, 9, 10}; }

std::vector<int> ExtendedQueryNumbers() { return {1, 4, 6, 12, 14, 19}; }

}  // namespace tpch
}  // namespace cgq
