// Tests for the diameter-approximation pipeline (§4): the sandwich
// Δ_C <= Δ <= Δ″ <= Δ′ against the exact diameter across the corpus, both
// pipeline variants (CLUSTER2 and the §6.2 simplified CLUSTER), and the
// approximation quality observed in the paper's experiments (Δ″/Δ < 2 on
// their benchmarks; we assert the proven O(log³n) bound and track the
// empirical ratio in the benches instead).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/cluster.hpp"
#include "core/diameter.hpp"
#include "graph/generators.hpp"
#include "graph/weighted.hpp"
#include "par/thread_pool.hpp"
#include "test_util.hpp"

namespace gclus {
namespace {

struct DiameterParam {
  std::size_t corpus_index;
  std::uint32_t tau;
  bool use_cluster2;
};

class DiameterSandwichTest
    : public ::testing::TestWithParam<DiameterParam> {};

TEST_P(DiameterSandwichTest, LowerAndUpperBoundsHold) {
  const auto corpus = testutil::small_connected_corpus();
  const auto& [name, graph] = corpus.at(GetParam().corpus_index);
  DiameterOptions opts;
  opts.seed = 17;
  opts.use_cluster2 = GetParam().use_cluster2;
  const DiameterApprox a = approximate_diameter(graph, GetParam().tau, opts);
  const Dist truth = testutil::brute_force_diameter(graph);

  EXPECT_LE(a.lower_bound, truth) << name;
  EXPECT_GE(a.upper_bound, truth) << name;
  EXPECT_LE(a.upper_bound, a.upper_bound_coarse) << name;

  // Theorem guarantee with explicit constant slack: Δ″ = O(Δ·log³n).
  const double logn =
      std::max(2.0, std::log2(static_cast<double>(graph.num_nodes())));
  EXPECT_LE(static_cast<double>(a.upper_bound),
            16.0 * std::max<double>(1.0, truth) * logn * logn * logn)
      << name;

  // Bookkeeping consistency.
  EXPECT_EQ(a.quotient_nodes, a.num_clusters);
  EXPECT_GE(a.upper_bound,
            2ULL * a.max_radius)  // at minimum the radius term
      << name;
}

std::vector<DiameterParam> diameter_params() {
  std::vector<DiameterParam> params;
  const std::size_t corpus_size = testutil::small_connected_corpus().size();
  for (std::size_t g = 0; g < corpus_size; ++g) {
    params.push_back({g, 2, false});
    params.push_back({g, 2, true});
    params.push_back({g, 8, false});
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DiameterSandwichTest, ::testing::ValuesIn(diameter_params()),
    [](const ::testing::TestParamInfo<DiameterParam>& info) {
      return "g" + std::to_string(info.param.corpus_index) + "_tau" +
             std::to_string(info.param.tau) +
             (info.param.use_cluster2 ? "_c2" : "_c1");
    });

TEST(DiameterApprox, ExactOnSingleCluster) {
  // τ large enough that one growth covers everything from few centers
  // still yields valid bounds; with a single cluster Δ″ = 2·R >= Δ.
  const Graph g = gen::star(50);
  const DiameterApprox a = approximate_diameter(g, 1, {});
  EXPECT_GE(a.upper_bound, 2u);
  EXPECT_LE(a.lower_bound, 2u);
}

TEST(DiameterApprox, QuotientShrinksWithSmallerTau) {
  const Graph g = gen::grid(40, 40);
  DiameterOptions opts;
  opts.seed = 23;
  const DiameterApprox coarse = approximate_diameter(g, 1, opts);
  const DiameterApprox fine = approximate_diameter(g, 12, opts);
  EXPECT_LT(coarse.quotient_nodes, fine.quotient_nodes);
  // Both estimates stay valid regardless of granularity (Table 3's
  // "approximation insensitive to granularity" observation).
  const Dist truth = 78;  // 40+40-2
  EXPECT_GE(coarse.upper_bound, truth);
  EXPECT_GE(fine.upper_bound, truth);
}

TEST(DiameterApprox, ReusesInjectedClustering) {
  const Graph g = gen::grid(20, 20);
  ClusterOptions copts;
  copts.seed = 29;
  const Clustering c = cluster(g, 4, copts);
  const DiameterApprox a = diameter_from_clustering(g, c);
  EXPECT_EQ(a.num_clusters, c.num_clusters());
  EXPECT_EQ(a.max_radius, c.max_radius());
  EXPECT_GE(a.upper_bound, 38u);
}

TEST(DiameterApprox, FromClusteringIdenticalAcrossPoolSizes) {
  // The Δ′_C sweep runs on the context's pool; exact distances make the
  // whole estimate independent of its size.
  const Graph g =
      testutil::largest_component_of(gen::road_like(60, 60, 0.05, 0.1, 43));
  ClusterOptions copts;
  copts.seed = 47;
  const Clustering c = cluster(g, 4, copts);
  ThreadPool one(1);
  ThreadPool eight(8);
  RunContext serial;
  serial.pool = &one;
  RunContext wide;
  wide.pool = &eight;
  const DiameterApprox a = diameter_from_clustering(g, c, serial);
  const DiameterApprox b = diameter_from_clustering(g, c, wide);
  ASSERT_GT(a.quotient_nodes, kApspSmallGraphNodes);  // the heap path
  EXPECT_EQ(a.lower_bound, b.lower_bound);
  EXPECT_EQ(a.upper_bound, b.upper_bound);
  EXPECT_EQ(a.upper_bound_coarse, b.upper_bound_coarse);
  EXPECT_EQ(a.weighted_quotient_diameter, b.weighted_quotient_diameter);
  EXPECT_EQ(a.max_radius, b.max_radius);
  EXPECT_EQ(a.quotient_nodes, b.quotient_nodes);
  EXPECT_EQ(a.quotient_edges, b.quotient_edges);
  EXPECT_EQ(a.growth_steps, b.growth_steps);
  EXPECT_EQ(a.num_clusters, b.num_clusters);
}

TEST(DiameterApprox, PathApproximationIsTight) {
  // On a path the weighted quotient recovers the geometry almost exactly:
  // Δ″ <= Δ + 4·R_ALG.
  const Graph g = gen::path(1500);
  DiameterOptions opts;
  opts.seed = 31;
  const DiameterApprox a = approximate_diameter(g, 8, opts);
  EXPECT_GE(a.upper_bound, 1499u);
  EXPECT_LE(a.upper_bound, 1499u + 4ULL * a.max_radius + 2);
}

TEST(DiameterApprox, DeterministicForSeed) {
  const Graph g = gen::road_like(20, 20, 0.08, 0.02, 37);
  DiameterOptions opts;
  opts.seed = 41;
  const DiameterApprox a = approximate_diameter(g, 4, opts);
  const DiameterApprox b = approximate_diameter(g, 4, opts);
  EXPECT_EQ(a.upper_bound, b.upper_bound);
  EXPECT_EQ(a.lower_bound, b.lower_bound);
  EXPECT_EQ(a.num_clusters, b.num_clusters);
}

}  // namespace
}  // namespace gclus
