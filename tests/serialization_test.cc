#include "data/serialization.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "gtest/gtest.h"

namespace autoac {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

Dataset SmallDataset() {
  DatasetOptions options;
  options.scale = 0.05;
  return MakeDataset("acm", options);
}

TEST(SerializationTest, GraphRoundTripPreservesStructure) {
  Dataset dataset = SmallDataset();
  std::string path = TempPath("graph.aacg");
  ASSERT_TRUE(SaveGraph(*dataset.graph, path).ok());

  StatusOr<HeteroGraphPtr> loaded = LoadGraph(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  const HeteroGraph& a = *dataset.graph;
  const HeteroGraph& b = *loaded.value();

  EXPECT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.num_node_types(), b.num_node_types());
  EXPECT_EQ(a.num_edge_types(), b.num_edge_types());
  EXPECT_EQ(a.edge_src(), b.edge_src());
  EXPECT_EQ(a.edge_dst(), b.edge_dst());
  EXPECT_EQ(a.edge_type_ids(), b.edge_type_ids());
  EXPECT_EQ(a.target_node_type(), b.target_node_type());
  EXPECT_EQ(a.target_edge_type(), b.target_edge_type());
  EXPECT_EQ(a.num_classes(), b.num_classes());
  EXPECT_EQ(a.global_labels(), b.global_labels());
  for (int64_t t = 0; t < a.num_node_types(); ++t) {
    EXPECT_EQ(a.node_type(t).name, b.node_type(t).name);
    EXPECT_EQ(a.node_type(t).count, b.node_type(t).count);
    ASSERT_EQ(a.node_type(t).attributes.numel(),
              b.node_type(t).attributes.numel());
    for (int64_t i = 0; i < a.node_type(t).attributes.numel(); ++i) {
      EXPECT_EQ(a.node_type(t).attributes.data()[i],
                b.node_type(t).attributes.data()[i]);
    }
  }
  std::remove(path.c_str());
}

TEST(SerializationTest, DatasetRoundTripPreservesSplitAndGroundTruth) {
  Dataset dataset = SmallDataset();
  std::string path = TempPath("dataset.aacd");
  ASSERT_TRUE(SaveDataset(dataset, path).ok());

  StatusOr<Dataset> loaded = LoadDataset(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  const Dataset& b = loaded.value();
  EXPECT_EQ(dataset.name, b.name);
  EXPECT_EQ(dataset.split.train, b.split.train);
  EXPECT_EQ(dataset.split.val, b.split.val);
  EXPECT_EQ(dataset.split.test, b.split.test);
  EXPECT_EQ(dataset.latent_class, b.latent_class);
  ASSERT_EQ(dataset.regime.size(), b.regime.size());
  for (size_t i = 0; i < dataset.regime.size(); ++i) {
    EXPECT_EQ(dataset.regime[i], b.regime[i]);
  }
  std::remove(path.c_str());
}

TEST(SerializationTest, LoadedGraphIsUsable) {
  Dataset dataset = SmallDataset();
  std::string path = TempPath("usable.aacg");
  ASSERT_TRUE(SaveGraph(*dataset.graph, path).ok());
  StatusOr<HeteroGraphPtr> loaded = LoadGraph(path);
  ASSERT_TRUE(loaded.ok());
  // Adjacency builders must work on the loaded graph (i.e., it was
  // finalized with consistent internal state).
  SpMatPtr adj = loaded.value()->FullAdjacency(AdjNorm::kSym, true);
  adj->forward().CheckInvariants();
  EXPECT_EQ(adj->num_rows(), dataset.graph->num_nodes());
  std::remove(path.c_str());
}

TEST(SerializationTest, MissingFileReportsError) {
  StatusOr<HeteroGraphPtr> loaded = LoadGraph("/nonexistent/nope.aacg");
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("cannot open"),
            std::string::npos);
}

TEST(SerializationTest, WrongMagicReportsError) {
  std::string path = TempPath("bogus.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a graph file";
  }
  StatusOr<HeteroGraphPtr> loaded = LoadGraph(path);
  EXPECT_FALSE(loaded.ok());
  StatusOr<Dataset> dataset = LoadDataset(path);
  EXPECT_FALSE(dataset.ok());
  std::remove(path.c_str());
}

TEST(SerializationTest, TruncatedFileReportsError) {
  Dataset dataset = SmallDataset();
  std::string full = TempPath("full.aacg");
  ASSERT_TRUE(SaveGraph(*dataset.graph, full).ok());
  // Copy the first 64 bytes only.
  std::string truncated = TempPath("truncated.aacg");
  {
    std::ifstream in(full, std::ios::binary);
    char buffer[64];
    in.read(buffer, sizeof(buffer));
    std::ofstream out(truncated, std::ios::binary);
    out.write(buffer, in.gcount());
  }
  StatusOr<HeteroGraphPtr> loaded = LoadGraph(truncated);
  EXPECT_FALSE(loaded.ok());
  std::remove(full.c_str());
  std::remove(truncated.c_str());
}

TEST(SerializationTest, Crc32MatchesReferenceValue) {
  // IEEE 802.3 check value for the standard test vector.
  EXPECT_EQ(io::Crc32("123456789", 9), 0xCBF43926u);
  // Chunked computation must match one-shot.
  uint32_t chunked = io::Crc32("12345", 5);
  chunked = io::Crc32("6789", 4, chunked);
  EXPECT_EQ(chunked, 0xCBF43926u);
  EXPECT_EQ(io::Crc32("", 0), 0u);
}

TEST(SerializationTest, UnsupportedVersionReportsError) {
  Dataset dataset = SmallDataset();
  std::string path = TempPath("oldversion.aacg");
  ASSERT_TRUE(SaveGraph(*dataset.graph, path).ok());
  {
    // Patch the version field (bytes 4..7, little-endian u32) to 1. The
    // CRC covers the payload only, so the rejection must come from the
    // version check, not the checksum.
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(4);
    char v1[4] = {1, 0, 0, 0};
    file.write(v1, 4);
  }
  StatusOr<HeteroGraphPtr> loaded = LoadGraph(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("unsupported container version"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(SerializationTest, ByteFlipFuzzAlwaysFailsCleanly) {
  Dataset dataset = SmallDataset();
  std::string clean = TempPath("fuzz_clean.aacg");
  ASSERT_TRUE(SaveGraph(*dataset.graph, clean).ok());
  std::string bytes;
  {
    std::ifstream in(clean, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  ASSERT_GT(bytes.size(), 16u);

  // Flip one byte at a sweep of positions covering the magic, version,
  // size, CRC fields and the payload. Every mutant must be rejected with a
  // Status — never parsed, never a crash.
  std::string mutant_path = TempPath("fuzz_mutant.aacg");
  size_t stride = bytes.size() / 97 + 1;
  size_t header_end = 20;  // 4 magic + 4 version + 8 size + 4 crc
  for (size_t pos = 0; pos < bytes.size();
       pos += (pos < header_end ? 1 : stride)) {
    std::string mutant = bytes;
    mutant[pos] ^= 0x40;
    {
      std::ofstream out(mutant_path, std::ios::binary | std::ios::trunc);
      out.write(mutant.data(), static_cast<std::streamsize>(mutant.size()));
    }
    StatusOr<HeteroGraphPtr> loaded = LoadGraph(mutant_path);
    EXPECT_FALSE(loaded.ok()) << "byte flip at offset " << pos
                              << " was not detected";
    if (pos >= header_end) {
      // Payload flips are specifically the CRC's job.
      EXPECT_NE(loaded.status().message().find("checksum mismatch"),
                std::string::npos)
          << "offset " << pos << ": " << loaded.status().message();
    }
  }

  // Truncation at a sweep of lengths must also fail cleanly.
  for (size_t len : {size_t{0}, size_t{3}, size_t{11}, size_t{19},
                     bytes.size() / 2, bytes.size() - 1}) {
    std::ofstream out(mutant_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(len));
    out.close();
    EXPECT_FALSE(LoadGraph(mutant_path).ok())
        << "truncation to " << len << " bytes was not detected";
  }

  // Trailing garbage is corruption too.
  {
    std::ofstream out(mutant_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out << "extra";
  }
  StatusOr<HeteroGraphPtr> trailing = LoadGraph(mutant_path);
  ASSERT_FALSE(trailing.ok());
  EXPECT_NE(trailing.status().message().find("trailing"), std::string::npos);

  std::remove(clean.c_str());
  std::remove(mutant_path.c_str());
}

/// A graph payload with an attributed "item" type (two nodes, the target),
/// an attribute-less "tag" type (one node) and one item-item edge, with
/// the given attribute matrix, edge endpoints (global ids) and labels.
std::string ItemGraphPayload(const Tensor& attributes, int64_t src,
                             int64_t dst, const std::vector<int64_t>& labels) {
  std::ostringstream payload;
  io::WriteI64(payload, 2);  // node types
  io::WriteString(payload, "item");
  io::WriteI64(payload, 2);
  io::WriteTensor(payload, attributes);
  io::WriteString(payload, "tag");
  io::WriteI64(payload, 1);
  io::WriteTensor(payload, Tensor());
  io::WriteI64(payload, 1);  // edge types
  io::WriteString(payload, "item-item");
  io::WriteI64(payload, 0);
  io::WriteI64(payload, 0);
  io::WriteI64Vector(payload, {src});
  io::WriteI64Vector(payload, {dst});
  io::WriteI64Vector(payload, {0});
  io::WriteI64(payload, 0);   // target node type
  io::WriteI64(payload, -1);  // target edge type
  io::WriteI64(payload, 2);   // classes
  io::WriteI64Vector(payload, labels);
  return payload.str();
}

// A graph body whose fields break a HeteroGraph invariant is malformed
// input, not a program bug: a Status naming the field, never a CHECK abort
// in SetAttributes or Finalize.
TEST(SerializationTest, GraphPayloadBreakingGraphInvariantsIsRefused) {
  struct Case {
    std::string payload;
    const char* field;
  };
  const Tensor attributes = Tensor::Zeros({2, 4});
  for (const Case& c : {
           Case{ItemGraphPayload(attributes, 0, 1, {0, 1}), ""},
           Case{ItemGraphPayload(Tensor::Zeros({3, 4}), 0, 1, {0, 1}),
                "node type"},
           Case{ItemGraphPayload(attributes, 0, 2, {0, 1}), "edge endpoint"},
           Case{ItemGraphPayload(attributes, 0, 1, {0, 1, 1}), "labels"},
       }) {
    std::istringstream in(c.payload);
    StatusOr<HeteroGraphPtr> graph = ReadGraphPayload(in);
    if (std::string(c.field).empty()) {
      EXPECT_TRUE(graph.ok()) << graph.status().message();
      continue;
    }
    ASSERT_FALSE(graph.ok()) << c.field;
    EXPECT_NE(graph.status().message().find(c.field), std::string::npos)
        << graph.status().message();
  }
}

TEST(StatusTest, BasicSemantics) {
  EXPECT_TRUE(Status::Ok().ok());
  Status err = Status::Error("boom");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.message(), "boom");
  StatusOr<int> value(7);
  EXPECT_TRUE(value.ok());
  EXPECT_EQ(value.value(), 7);
  StatusOr<int> failed(Status::Error("nope"));
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().message(), "nope");
}

}  // namespace
}  // namespace autoac
