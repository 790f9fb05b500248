// Differential tests of graph setup against the test-only references in
// setup_reference.h: the O(m) conversions and CsrGraph::FromEdges must
// produce byte-identical CSR arrays, and the block scanner behind the text
// readers must return the same Status (code and message) and the same
// values as the original line-at-a-time readers on every input.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "graph/conversion.h"
#include "graph/csr_graph.h"
#include "graph/graph_io.h"
#include "setup_reference.h"

namespace spinner {
namespace {

using setup_reference::ArraysOf;

// ------------------------------------------------------------- conversion

/// Which structures a random graph is built to contain.
struct Shape {
  int64_t n = 0;
  int64_t m = 0;
  bool hub = false;          // one vertex adjacent to more than n/4 others
  bool sorted = false;       // input sorted by (src, dst)
  double duplicates = 0.0;   // fraction of edges repeated verbatim
  double reciprocal = 0.0;   // fraction of edges also added reversed
  double loops = 0.0;        // fraction of extra self-loops
  int64_t isolated = 0;      // top vertex ids never used by any edge
};

EdgeList RandomEdges(const Shape& shape, uint64_t seed) {
  Rng rng(seed);
  EdgeList edges;
  const int64_t used = shape.n - shape.isolated;
  if (used <= 0) return edges;
  const auto pick = [&] { return static_cast<VertexId>(rng.Uniform(used)); };
  for (int64_t i = 0; i < shape.m; ++i) edges.push_back({pick(), pick()});
  if (shape.hub) {
    const VertexId hub = pick();
    for (VertexId v = 0; v < used; v += 2) {
      edges.push_back(rng.Bernoulli(0.5) ? Edge{hub, v} : Edge{v, hub});
    }
  }
  const size_t base = edges.size();
  for (size_t i = 0; i < base; ++i) {
    if (rng.Bernoulli(shape.duplicates)) edges.push_back(edges[i]);
    if (rng.Bernoulli(shape.reciprocal)) {
      edges.push_back({edges[i].dst, edges[i].src});
    }
    if (rng.Bernoulli(shape.loops)) {
      const VertexId v = pick();
      edges.push_back({v, v});
    }
  }
  if (shape.sorted) {
    std::sort(edges.begin(), edges.end());
  } else {
    std::shuffle(edges.begin(), edges.end(), rng);
  }
  return edges;
}

Shape RandomShape(Rng* rng) {
  Shape shape;
  shape.n = static_cast<int64_t>(rng->Uniform(80));
  shape.m = static_cast<int64_t>(rng->Uniform(4 * shape.n + 1));
  shape.hub = rng->Bernoulli(0.3);
  shape.sorted = rng->Bernoulli(0.3);
  shape.duplicates = rng->NextDouble() * 0.5;
  shape.reciprocal = rng->NextDouble() * 0.8;
  shape.loops = rng->NextDouble() * 0.2;
  shape.isolated = shape.n > 0 ? static_cast<int64_t>(rng->Uniform(
                                     static_cast<uint64_t>(shape.n / 3 + 1)))
                               : 0;
  return shape;
}

/// Runs both conversions and both references on one input.
void ExpectConversionsMatch(int64_t n, const EdgeList& edges,
                            const std::string& label) {
  auto converted = ConvertToWeightedUndirected(n, edges);
  auto converted_ref = setup_reference::ConvertToWeightedUndirected(n, edges);
  ASSERT_EQ(converted.status(), converted_ref.status()) << label;
  if (converted.ok()) {
    EXPECT_TRUE(ArraysOf(*converted) == *converted_ref) << label;
  }
  auto symmetric = BuildSymmetric(n, edges);
  auto symmetric_ref = setup_reference::BuildSymmetric(n, edges);
  ASSERT_EQ(symmetric.status(), symmetric_ref.status()) << label;
  if (symmetric.ok()) {
    EXPECT_TRUE(ArraysOf(*symmetric) == *symmetric_ref) << label;
  }
}

TEST(SetupDifferentialTest, ConversionsMatchReferenceOnRandomGraphs) {
  Rng rng(2024);
  for (int trial = 0; trial < 400; ++trial) {
    const Shape shape = RandomShape(&rng);
    const EdgeList edges = RandomEdges(shape, 1000 + trial);
    ExpectConversionsMatch(shape.n, edges,
                           "trial " + std::to_string(trial) + " n=" +
                               std::to_string(shape.n));
    if (HasFailure()) return;
  }
}

TEST(SetupDifferentialTest, ConversionsMatchReferenceOnLargerGraphs) {
  for (const bool sorted : {false, true}) {
    Shape shape;
    shape.n = 3000;
    shape.m = 20000;
    shape.hub = true;
    shape.sorted = sorted;
    shape.duplicates = 0.2;
    shape.reciprocal = 0.4;
    shape.loops = 0.05;
    shape.isolated = 100;
    ExpectConversionsMatch(shape.n, RandomEdges(shape, 77),
                           sorted ? "sorted" : "shuffled");
  }
}

TEST(SetupDifferentialTest, ConversionsMatchReferenceOnEdgeCases) {
  ExpectConversionsMatch(0, {}, "n=0");
  ExpectConversionsMatch(1, {}, "n=1");
  ExpectConversionsMatch(1, {{0, 0}, {0, 0}}, "n=1 loops only");
  ExpectConversionsMatch(5, {}, "all isolated");
  ExpectConversionsMatch(2, {{1, 0}, {0, 1}, {1, 0}}, "reciprocal dups");
  // A star whose centre is the highest id: every arc lands in the centre's
  // lower part through the transpose.
  EdgeList star;
  for (VertexId v = 0; v < 40; ++v) star.push_back({v, 40});
  ExpectConversionsMatch(41, star, "star on top id");
  // Errors: the same Status, message included.
  ExpectConversionsMatch(-1, {}, "negative n");
  ExpectConversionsMatch(0, {{0, 0}}, "edge in an empty graph");
  ExpectConversionsMatch(3, {{0, 1}, {2, 3}}, "dst out of range");
  ExpectConversionsMatch(3, {{-1, 1}}, "negative src");
}

TEST(SetupDifferentialTest, FromEdgesMatchesReference) {
  Rng rng(99);
  for (int trial = 0; trial < 300; ++trial) {
    const Shape shape = RandomShape(&rng);
    const EdgeList edges = RandomEdges(shape, 5000 + trial);
    std::vector<EdgeWeight> weights;
    if (rng.Bernoulli(0.5)) {
      for (size_t i = 0; i < edges.size(); ++i) {
        weights.push_back(static_cast<EdgeWeight>(1 + rng.Uniform(3)));
      }
    }
    const std::string label = "trial " + std::to_string(trial);
    auto got = CsrGraph::FromEdges(shape.n, edges, weights);
    auto want = setup_reference::FromEdges(shape.n, edges, weights);
    ASSERT_EQ(got.status(), want.status()) << label;
    if (got.ok()) {
      ASSERT_TRUE(ArraysOf(*got) == *want) << label;
    }
  }
  // Parallel arcs with different weights: ties broken by weight.
  const EdgeList parallel = {{0, 1}, {0, 1}, {0, 1}, {1, 0}};
  const std::vector<EdgeWeight> weights = {3, 1, 2, 1};
  EXPECT_TRUE(ArraysOf(*CsrGraph::FromEdges(2, parallel, weights)) ==
              *setup_reference::FromEdges(2, parallel, weights));
  for (const auto& [n, edges, w] :
       std::vector<std::tuple<int64_t, EdgeList, std::vector<EdgeWeight>>>{
           {-1, {}, {}}, {2, {{0, 2}}, {}}, {2, {{0, 1}}, {1, 2}}}) {
    EXPECT_EQ(CsrGraph::FromEdges(n, edges, w).status(),
              setup_reference::FromEdges(n, edges, w).status());
  }
}

// ----------------------------------------------------------------- parser

class ParserCorpusTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = testing::TempDir() + "/parser_corpus_" +
            testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".txt";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void Write(const std::string& content) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
  }

  /// Both readers on `content`: equal Status (code and message) and equal
  /// values. ReadPartitioning sees the same bytes with a few vertex counts.
  void ExpectSameParse(const std::string& content, const std::string& label) {
    Write(content);
    ExpectSameOnPath(path_, label);
  }

  static void ExpectSameOnPath(const std::string& path,
                               const std::string& label) {
    auto got = graph_io::ReadEdgeList(path);
    auto want = setup_reference::ReadEdgeList(path);
    ASSERT_EQ(got.status(), want.status()) << label;
    if (got.ok()) {
      ASSERT_EQ(*got, *want) << label;
    }
    for (const int64_t n : {0, 1, 3, 6}) {
      auto parts = graph_io::ReadPartitioning(path, n);
      auto parts_ref = setup_reference::ReadPartitioning(path, n);
      ASSERT_EQ(parts.status(), parts_ref.status()) << label << " n=" << n;
      if (parts.ok()) {
        ASSERT_EQ(*parts, *parts_ref) << label << " n=" << n;
      }
    }
  }

  std::string path_;
};

TEST_F(ParserCorpusTest, EdgeCasesMatchLineReader) {
  using namespace std::string_literals;
  const std::vector<std::string> corpus = {
      "",
      "\n",
      "0 1\n1 2\n2 0\n",
      "0 1\n1 2",  // no trailing newline
      "0 1\n\n\n",
      "# header\n% matrix market\n  # indented comment\n0 1\n",
      "#\n%\n0 1\n#0 1 trailing comment\n",
      " \t \n\t\n0 1\n",
      "0\t1\n1  \t 2\n\t3\t\t4\t\n",
      "0 1 2\n1 2 foo bar\n2 0\tweight\n",
      "0 1\r\n1 2\r\n",
      "0 1\r\n1 2\r",
      "0\r 1\r\n",
      "0 1\r\r\n",
      "0 1\rx\n",
      "\r\n0 1\r\n\r\n",
      "\v0 1\f\n",
      "0 1\v\n",
      "0\v 1\n",
      "0 \v1\n",
      "\v\n0 1\n",
      "\f\v\r\n",
      "0\v1\n",
      "+1 2\n",
      "1 +2\n",
      "+ 1 2\n",
      "++1 2\n",
      "-0 1\n",
      "-1 2\n",
      "1 -2\n",
      "5 -0\n",
      "9223372036854775807 1\n",
      "9223372036854775808 1\n",
      "1 99999999999999999999999\n",
      "-9223372036854775808 1\n",
      "0000000000000000000000000000001 2\n",    // 31 digits
      "00000000000000000000000000000001 2\n",   // 32 digits
      "2 00000000000000000000000000000001\n",
      "0x10 1\n",
      "1 0x10\n",
      "1e3 2\n",
      "1.0 2\n",
      "1,2\n",
      "1\n",
      "1 \n",
      "1\t\n",
      "abc def\n",
      "0 1\nnot numbers\n",
      "0 1\n1 2\n2 x\n3 4\n",
      "1\xa0 2\n",
      "1 2\x7f\n",
      "1\0 2\n"s,
      "1 2\0\n"s,
      "\0\n"s,
      "#\0\n0 1\n"s,
      "0 1\n\0"s,
      "0 1\n3 \0 4\n"s,
      "0 0\n1 1\n2 2\n",
      "0 1\n0 2\n",           // duplicate vertex in a partition map
      "0 1\n1 1\n2 1\n",
      "7 1\n",                // vertex out of range for small n
      "0 4294967295\n",       // partition wraps in the 32-bit label
      "0 2147483648\n",
  };
  for (size_t i = 0; i < corpus.size(); ++i) {
    ExpectSameParse(corpus[i], "corpus entry " + std::to_string(i));
    if (HasFatalFailure()) return;
  }
}

TEST_F(ParserCorpusTest, LongLinesMatchLineReader) {
  const std::string mib(1 << 20, 'x');
  const std::string spaces(1 << 20, ' ');
  const std::vector<std::string> corpus = {
      "#" + mib + "\n0 1\n",
      spaces + "0 1\n1 2\n",
      "0 1 " + mib + "\n1 2\n",
      "0 1\n" + mib + "\n",           // a 1 MiB malformed line
      "0 " + spaces + "1\n",
      "0 1\n2 3" + spaces,            // unterminated, blank-padded
  };
  for (size_t i = 0; i < corpus.size(); ++i) {
    ExpectSameParse(corpus[i], "long entry " + std::to_string(i));
    if (HasFatalFailure()) return;
  }
}

TEST_F(ParserCorpusTest, NewlinesAroundBufferEdgesMatchLineReader) {
  // A leading comment of length L puts the first '\n' at byte L, so a
  // sweep of L moves it across the first read's end (1 MiB) and past
  // lengths that outgrow the buffer.
  for (const size_t len : {(size_t{1} << 20) - 3, (size_t{1} << 20) - 2,
                           (size_t{1} << 20) - 1, size_t{1} << 20,
                           (size_t{1} << 20) + 1, (size_t{1} << 21) + 5}) {
    std::string comment(len, 'c');
    comment[0] = '#';
    ExpectSameParse(comment + "\n0 1\n1 2\n", "L=" + std::to_string(len));
    ExpectSameParse(comment, "unterminated L=" + std::to_string(len));
    if (HasFatalFailure()) return;
  }
}

TEST_F(ParserCorpusTest, MultiMebibyteRandomFileMatchesLineReader) {
  // Random line lengths, so lines straddle every block boundary.
  Rng rng(31337);
  const auto blanks = [&](uint64_t max) {
    std::string out;
    for (uint64_t i = rng.Uniform(max + 1); i > 0; --i) {
      out.push_back(rng.Bernoulli(0.7) ? ' ' : '\t');
    }
    return out;
  };
  std::string content;
  int64_t expected_edges = 0;
  while (content.size() < (size_t{5} << 20)) {
    const uint64_t kind = rng.Uniform(100);
    if (kind < 80) {
      content += blanks(3) + std::to_string(rng.Uniform(1'000'000)) +
                 (blanks(4) + (rng.Bernoulli(0.5) ? " " : "\t")) +
                 std::to_string(rng.Uniform(1'000'000)) + blanks(2);
      if (rng.Bernoulli(0.1)) content += " " + std::to_string(rng.Next());
      if (rng.Bernoulli(0.1)) content += "\r";
      ++expected_edges;
    } else if (kind < 95) {
      content += "# " + std::string(rng.Uniform(400), 'c');
    } else if (kind < 99) {
      content += blanks(6);
    } else {
      content += "%" + std::string(rng.Uniform(300'000), 'p');
    }
    content += "\n";
  }
  ExpectSameParse(content, "random file");
  auto edges = graph_io::ReadEdgeList(path_);
  ASSERT_TRUE(edges.ok()) << edges.status();
  EXPECT_EQ(static_cast<int64_t>(edges->size()), expected_edges);

  // The same bytes with one malformed line near the end: the error must
  // name the same line number.
  const size_t cut = content.rfind('\n', content.size() - 2);
  ExpectSameParse(content.substr(0, cut + 1) + "12 z\n" +
                      content.substr(cut + 1),
                  "random file, late error");
}

TEST_F(ParserCorpusTest, UnreadablePathsMatchLineReader) {
  ExpectSameOnPath("/nonexistent/dir/edges.txt", "missing file");
  ExpectSameOnPath(testing::TempDir(), "a directory");
}

}  // namespace
}  // namespace spinner
