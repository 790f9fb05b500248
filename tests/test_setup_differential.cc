// Differential tests of graph setup against the test-only references in
// setup_reference.h: the O(m) conversions and CsrGraph::FromEdges must
// produce byte-identical CSR arrays, and the block scanner behind the text
// readers must return the same Status (code and message) and the same
// values as the original line-at-a-time readers on every input. The
// chunked setup passes (common/parallel.h) are forced to several chunk
// counts, whatever the host's core count, and must match too.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "graph/conversion.h"
#include "graph/csr_graph.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "graph/sharded_store.h"
#include "setup_reference.h"

namespace spinner {
namespace {

using setup_reference::ArraysOf;

/// Chunk counts the chunked passes are forced to, beyond the single chunk
/// the public entry points pick on a 1-CPU host.
constexpr int kForcedChunks[] = {2, 3, 4, 7};

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

/// Runs both conversions and both references on one input, then
/// Symmetrize in both modes with each of `chunks` chunk counts.
void ExpectConversionsMatch(int64_t n, const EdgeList& edges,
                            const std::string& label,
                            std::span<const int> chunks = kForcedChunks) {
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
  for (const int c : chunks) {
    const std::string where = label + " chunks=" + std::to_string(c);
    auto weighted = Symmetrize(n, edges, /*weighted=*/true, c);
    ASSERT_EQ(weighted.status(), converted_ref.status()) << where;
    if (weighted.ok()) {
      EXPECT_TRUE(ArraysOf(*weighted) == *converted_ref) << where;
    }
    auto unweighted = Symmetrize(n, edges, /*weighted=*/false, c);
    ASSERT_EQ(unweighted.status(), symmetric_ref.status()) << where;
    if (unweighted.ok()) {
      EXPECT_TRUE(ArraysOf(*unweighted) == *symmetric_ref) << where;
    }
  }
}

TEST(SetupDifferentialTest, ConversionsMatchReferenceOnRandomGraphs) {
  Rng rng(2024);
  for (int trial = 0; trial < 400; ++trial) {
    const Shape shape = RandomShape(&rng);
    const EdgeList edges = RandomEdges(shape, 1000 + trial);
    // One forced chunk count per trial keeps the thread starts few; the
    // trials cycle through all of them.
    const int chunks[] = {kForcedChunks[trial % std::size(kForcedChunks)]};
    ExpectConversionsMatch(shape.n, edges,
                           "trial " + std::to_string(trial) + " n=" +
                               std::to_string(shape.n),
                           chunks);
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

  /// Also reads the edges with every forced chunk count.
  static void ExpectSameOnPath(const std::string& path,
                               const std::string& label) {
    auto got = graph_io::ReadEdgeList(path);
    auto want = setup_reference::ReadEdgeList(path);
    ASSERT_EQ(got.status(), want.status()) << label;
    if (got.ok()) {
      ASSERT_EQ(*got, *want) << label;
    }
    for (const int chunks : kForcedChunks) {
      auto chunked = graph_io::ReadEdgeList(path, chunks);
      ASSERT_EQ(chunked.status(), want.status())
          << label << " chunks=" << chunks;
      if (chunked.ok()) {
        ASSERT_EQ(*chunked, *want) << label << " chunks=" << chunks;
      }
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

TEST_F(ParserCorpusTest, ChunkCutsAtEveryOffsetMatchLineReader) {
  // Short lines of every kind, CRLF ones included. Padding the first line
  // by 0..15 bytes moves each chunk's even cut across every offset of the
  // lines around it, so cuts land on a '\r', between '\r' and '\n', on a
  // comment, a blank line and the unterminated last line.
  std::string body;
  for (int i = 0; i < 24; ++i) {
    body += std::to_string(i) + " " + std::to_string(i * 7 % 31) + "\r\n";
    body += i % 3 == 0 ? "# comment\n" : i % 3 == 1 ? "\n" : " \t\n";
    body += std::to_string(i + 1) + "\t" + std::to_string(i) + " x\n";
  }
  body += "40 41";  // unterminated
  for (int pad = 0; pad < 16; ++pad) {
    ExpectSameParse(std::string(pad, ' ') + "0 1\n" + body,
                    "pad " + std::to_string(pad));
    if (HasFatalFailure()) return;
  }
}

TEST_F(ParserCorpusTest, MalformedLinesInTwoChunksReportTheFirst) {
  // Two malformed lines, one in the first half and one in the last
  // quarter of the file, so every forced chunk count puts them in
  // different chunks: the error names the first, with its line number in
  // the whole file. Without it, the later one is reported.
  std::vector<std::string> lines;
  for (int i = 0; i < 400; ++i) {
    lines.push_back(std::to_string(i) + " " + std::to_string(i + 1));
  }
  const auto join = [](const std::vector<std::string>& parts) {
    std::string out;
    for (const std::string& part : parts) out += part + "\n";
    return out;
  };
  std::vector<std::string> both = lines;
  both[130] = "130 oops";
  both[350] = "-1 2";
  ExpectSameParse(join(both), "both malformed");
  std::vector<std::string> late = lines;
  late[350] = "-1 2";
  ExpectSameParse(join(late), "late malformed");

  Write(join(both));
  const Status first = graph_io::ReadEdgeList(path_, 4).status();
  EXPECT_EQ(first.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(first.message().find(":131: malformed edge line: '130 oops'"),
            std::string::npos)
      << first;
}

TEST_F(ParserCorpusTest, LongLineAcrossAChunkCutMatchesLineReader) {
  // A 1.5 MiB comment and a 1.5 MiB line of extra columns, each straddling
  // the cuts of every forced chunk count.
  const std::string long_run(3 << 19, 'x');
  std::string lines;
  for (int i = 0; i < 1000; ++i) lines += std::to_string(i) + " 1\n";
  ExpectSameParse(lines + "#" + long_run + "\n" + lines, "long comment");
  ExpectSameParse(lines + "5 6 " + long_run + "\n" + lines, "long columns");
  ExpectSameParse(lines + long_run + "\n" + lines, "long malformed line");
}

TEST_F(ParserCorpusTest, FifoIsReadAsOneStream) {
  std::string content;
  for (int i = 0; i < 20000; ++i) {
    content += std::to_string(i) + " " + std::to_string(i * 3 % 20000) + "\n";
  }
  content += "# trailer";
  Write(content);
  auto want = setup_reference::ReadEdgeList(path_);
  ASSERT_TRUE(want.ok()) << want.status();

  const std::string fifo = path_ + ".fifo";
  std::remove(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  // The writer's open blocks until the reader opens the FIFO.
  std::thread writer([&] {
    std::ofstream out(fifo, std::ios::binary);
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
  });
  auto got = graph_io::ReadEdgeList(fifo, 4);
  writer.join();
  std::remove(fifo.c_str());
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, *want);
}

// ------------------------------------------------------------ store build

/// The arrays Build fills, shard by shard, must equal the single-chunk
/// build's.
void ExpectSameStore(const ShardedGraphStore& got,
                     const ShardedGraphStore& want, const std::string& label) {
  ASSERT_EQ(got.num_shards(), want.num_shards()) << label;
  EXPECT_EQ(got.NumVertices(), want.NumVertices()) << label;
  EXPECT_EQ(got.NumArcs(), want.NumArcs()) << label;
  EXPECT_EQ(got.TotalArcWeight(), want.TotalArcWeight()) << label;
  EXPECT_EQ(got.labels(), want.labels()) << label;
  for (int s = 0; s < want.num_shards(); ++s) {
    const auto& a = got.shard(s);
    const auto& b = want.shard(s);
    const std::string where = label + " shard " + std::to_string(s);
    EXPECT_EQ(a.begin, b.begin) << where;
    EXPECT_EQ(a.end, b.end) << where;
    EXPECT_EQ(a.offsets, b.offsets) << where;
    EXPECT_EQ(a.targets, b.targets) << where;
    EXPECT_EQ(a.weights, b.weights) << where;
    EXPECT_EQ(a.weighted_degree, b.weighted_degree) << where;
    EXPECT_EQ(a.inv_weighted_degree, b.inv_weighted_degree) << where;
    EXPECT_EQ(a.loads, b.loads) << where;
    EXPECT_EQ(got.rebuild_count(s), want.rebuild_count(s)) << where;
  }
}

TEST(SetupDifferentialTest, ChunkedStoreBuildMatchesSingleChunk) {
  auto graph = BarabasiAlbert(6000, 4, 4, /*seed=*/17);
  ASSERT_TRUE(graph.ok()) << graph.status();
  auto converted =
      ConvertToWeightedUndirected(graph->num_vertices, graph->edges);
  ASSERT_TRUE(converted.ok()) << converted.status();
  for (const int shards : {1, 2, 5, 16}) {
    auto want = ShardedGraphStore::Build(*converted, shards, 1);
    ASSERT_TRUE(want.ok()) << want.status();
    for (const int chunks : kForcedChunks) {
      auto got = ShardedGraphStore::Build(*converted, shards, chunks);
      ASSERT_TRUE(got.ok()) << got.status();
      ExpectSameStore(*got, *want,
                      "S=" + std::to_string(shards) +
                          " chunks=" + std::to_string(chunks));
    }
  }
}

TEST(SetupDifferentialTest, ChunkedStoreBuildRejectsAWeightInAnyChunk) {
  // One arc of weight 300 (over the 8-bit limit) on the last vertex, so
  // only the chunk of the last shard sees it.
  const int64_t n = 4000;
  EdgeList edges;
  for (VertexId v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1});
  std::vector<EdgeWeight> weights(edges.size(), 1);
  edges.push_back({n - 1, 0});
  weights.push_back(300);
  auto graph = CsrGraph::FromEdges(n, edges, weights);
  ASSERT_TRUE(graph.ok()) << graph.status();
  const Status want = ShardedGraphStore::Build(*graph, 8, 1).status();
  EXPECT_EQ(want.code(), StatusCode::kInvalidArgument);
  for (const int chunks : kForcedChunks) {
    EXPECT_EQ(ShardedGraphStore::Build(*graph, 8, chunks).status(), want)
        << "chunks=" << chunks;
  }
}

// ------------------------------------------------------ transient threads

/// Threads of this process, from /proc/self/task.
int LiveThreads() {
  int count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++count;
  }
  return count;
}

TEST(SetupDifferentialTest, ChunkedSetupLeavesNoThreadBehind) {
  const std::string path = testing::TempDir() + "/chunked_threads.txt";
  {
    std::ofstream out(path);
    for (int i = 0; i < 5000; ++i) out << i << ' ' << (i * 13 % 5000) << '\n';
  }
  // A first thread start may start a sanitizer runtime's own helper
  // thread, which lives on; count after it.
  RunChunks(2, [](int) {});
  const int before = LiveThreads();
  auto edges = graph_io::ReadEdgeList(path, 7);
  ASSERT_TRUE(edges.ok()) << edges.status();
  EXPECT_EQ(LiveThreads(), before);
  auto converted = Symmetrize(5000, *edges, /*weighted=*/true, 7);
  ASSERT_TRUE(converted.ok()) << converted.status();
  EXPECT_EQ(LiveThreads(), before);
  ASSERT_TRUE(ShardedGraphStore::Build(*converted, 7, 7).ok());
  EXPECT_EQ(LiveThreads(), before);
  std::remove(path.c_str());
}

TEST(SetupDifferentialTest, RunChunksRunsOneChunkOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  for (const int chunks : {-1, 0, 1}) {
    int runs = 0;
    RunChunks(chunks, [&](int c) {
      EXPECT_EQ(c, 0);
      EXPECT_EQ(std::this_thread::get_id(), caller);
      ++runs;
    });
    EXPECT_EQ(runs, 1) << "chunks=" << chunks;
  }
}

TEST(SetupDifferentialTest, RunChunksRunsEveryChunkAndRethrowsTheFirstError) {
  std::vector<int> ran(7, 0);
  RunChunks(7, [&](int c) { ++ran[c]; });
  EXPECT_EQ(ran, std::vector<int>(7, 1));
  try {
    RunChunks(5, [](int c) {
      if (c >= 2) throw std::runtime_error("chunk " + std::to_string(c));
    });
    ADD_FAILURE() << "no exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 2");
  }
}

TEST(SetupDifferentialTest, ChunkRangesCoverTheItemsEvenly) {
  for (const int64_t items : {0, 1, 6, 7, 100, 1001}) {
    for (const int chunks : {1, 2, 3, 7}) {
      EXPECT_EQ(ChunkBegin(items, chunks, 0), 0);
      EXPECT_EQ(ChunkBegin(items, chunks, chunks), items);
      for (int c = 0; c < chunks; ++c) {
        const int64_t size =
            ChunkBegin(items, chunks, c + 1) - ChunkBegin(items, chunks, c);
        EXPECT_GE(size, items / chunks);
        EXPECT_LE(size, items / chunks + 1);
      }
    }
  }
  EXPECT_EQ(ChunkCount(0), 1);
  EXPECT_EQ(ChunkCount(2 * kMinItemsPerChunk - 1), 1);
  EXPECT_EQ(ChunkCount(int64_t{1} << 40), HardwareThreads());
}

}  // namespace
}  // namespace spinner
