#include "data/serialization.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/fault.h"

namespace autoac {
namespace {

constexpr char kGraphMagic[4] = {'A', 'A', 'C', 'G'};
constexpr char kDatasetMagic[4] = {'A', 'A', 'C', 'D'};

// True when at least `bytes` remain between the stream's read position and
// its end. Every length-prefixed reader bounds its allocation by the bytes
// actually present, so a corrupted length field is a clean parse failure
// instead of a giant allocation.
bool BytesRemain(std::istream& in, uint64_t bytes) {
  if (bytes == 0) return true;
  std::streampos pos = in.tellg();
  if (pos < 0) return false;
  in.seekg(0, std::ios::end);
  std::streampos end = in.tellg();
  in.seekg(pos);
  return end >= pos && static_cast<uint64_t>(end - pos) >= bytes;
}

}  // namespace

namespace io {

uint32_t Crc32(const void* data, size_t size, uint32_t crc) {
  // Table-driven CRC-32 (IEEE), table built on first use.
  static const uint32_t* table = [] {
    static uint32_t t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    c = table[(c ^ bytes[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void WriteU32(std::ostream& out, uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void WriteU64(std::ostream& out, uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void WriteI64(std::ostream& out, int64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void WriteF64(std::ostream& out, double v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void WriteString(std::ostream& out, const std::string& s) {
  WriteU32(out, static_cast<uint32_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

void WriteI64Vector(std::ostream& out, const std::vector<int64_t>& v) {
  WriteI64(out, static_cast<int64_t>(v.size()));
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(int64_t)));
}

void WriteF32Vector(std::ostream& out, const std::vector<float>& v) {
  WriteI64(out, static_cast<int64_t>(v.size()));
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(float)));
}

void WriteF64Vector(std::ostream& out, const std::vector<double>& v) {
  WriteI64(out, static_cast<int64_t>(v.size()));
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(double)));
}

void WriteTensor(std::ostream& out, const Tensor& t) {
  WriteI64Vector(out, t.shape());
  out.write(reinterpret_cast<const char*>(t.data()),
            static_cast<std::streamsize>(t.numel() * sizeof(float)));
}

bool ReadU32(std::istream& in, uint32_t* v) {
  in.read(reinterpret_cast<char*>(v), sizeof(*v));
  return in.good();
}

bool ReadU64(std::istream& in, uint64_t* v) {
  in.read(reinterpret_cast<char*>(v), sizeof(*v));
  return in.good();
}

bool ReadI64(std::istream& in, int64_t* v) {
  in.read(reinterpret_cast<char*>(v), sizeof(*v));
  return in.good();
}

bool ReadF64(std::istream& in, double* v) {
  in.read(reinterpret_cast<char*>(v), sizeof(*v));
  return in.good();
}

bool ReadString(std::istream& in, std::string* s) {
  uint32_t size = 0;
  if (!ReadU32(in, &size) || !BytesRemain(in, size)) return false;
  s->resize(size);
  in.read(s->data(), size);
  return in.good() || size == 0;
}

bool ReadI64Vector(std::istream& in, std::vector<int64_t>* v) {
  int64_t size = 0;
  // The < 2^48 guard keeps the byte-count multiplication from overflowing.
  if (!ReadI64(in, &size) || size < 0 || size > (int64_t{1} << 48) ||
      !BytesRemain(in, static_cast<uint64_t>(size) * sizeof(int64_t))) {
    return false;
  }
  v->resize(size);
  in.read(reinterpret_cast<char*>(v->data()),
          static_cast<std::streamsize>(size * sizeof(int64_t)));
  return in.good() || size == 0;
}

bool ReadF32Vector(std::istream& in, std::vector<float>* v) {
  int64_t size = 0;
  if (!ReadI64(in, &size) || size < 0 || size > (int64_t{1} << 48) ||
      !BytesRemain(in, static_cast<uint64_t>(size) * sizeof(float))) {
    return false;
  }
  v->resize(size);
  in.read(reinterpret_cast<char*>(v->data()),
          static_cast<std::streamsize>(size * sizeof(float)));
  return in.good() || size == 0;
}

bool ReadF64Vector(std::istream& in, std::vector<double>* v) {
  int64_t size = 0;
  if (!ReadI64(in, &size) || size < 0 || size > (int64_t{1} << 48) ||
      !BytesRemain(in, static_cast<uint64_t>(size) * sizeof(double))) {
    return false;
  }
  v->resize(size);
  in.read(reinterpret_cast<char*>(v->data()),
          static_cast<std::streamsize>(size * sizeof(double)));
  return in.good() || size == 0;
}

bool ReadTensor(std::istream& in, Tensor* t) {
  std::vector<int64_t> shape;
  if (!ReadI64Vector(in, &shape)) return false;
  if (shape.empty()) {  // default-constructed tensor (e.g. no attributes)
    *t = Tensor();
    return true;
  }
  int64_t numel = 1;
  for (int64_t extent : shape) {
    if (extent < 0 || (extent > 0 && numel > (int64_t{1} << 48) / extent)) {
      return false;
    }
    numel *= extent;
  }
  if (!BytesRemain(in, static_cast<uint64_t>(numel) * sizeof(float))) {
    return false;
  }
  std::vector<float> values(numel);
  in.read(reinterpret_cast<char*>(values.data()),
          static_cast<std::streamsize>(numel * sizeof(float)));
  if (!in.good() && numel > 0) return false;
  *t = Tensor::FromVector(std::move(shape), std::move(values));
  return true;
}

Status WriteFileAtomic(const std::string& path, const char magic[4],
                       const std::string& payload) {
  std::string header;
  {
    std::ostringstream h;
    h.write(magic, 4);
    WriteU32(h, kContainerVersion);
    WriteU64(h, static_cast<uint64_t>(payload.size()));
    WriteU32(h, Crc32(payload.data(), payload.size()));
    header = h.str();
  }
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::Error("cannot open " + tmp + " for writing");
  }
  bool ok = std::fwrite(header.data(), 1, header.size(), f) == header.size();
  // Write the payload in two halves with the fault-injection site between
  // them: a kill here leaves only the temp file, and the real target (the
  // previous checkpoint / dataset) untouched.
  size_t half = payload.size() / 2;
  ok = ok && std::fwrite(payload.data(), 1, half, f) == half;
  FaultPoint("atomic_write");
  ok = ok && std::fwrite(payload.data() + half, 1, payload.size() - half,
                         f) == payload.size() - half;
  ok = ok && std::fflush(f) == 0;
  // fsync before rename: the rename must never land before the data.
  ok = ok && ::fsync(::fileno(f)) == 0;
  ok = (std::fclose(f) == 0) && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::Error("write failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Error("cannot rename " + tmp + " to " + path);
  }
  return Status::Ok();
}

StatusOr<std::string> ReadFileChecked(const std::string& path,
                                      const char magic[4]) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::Error("cannot open " + path);
  char file_magic[4];
  in.read(file_magic, 4);
  if (!in.good()) return Status::Error(path + ": truncated header");
  if (std::memcmp(file_magic, magic, 4) != 0) {
    return Status::Error(path + " is not an AutoAC file of the expected "
                                "kind (bad magic)");
  }
  uint32_t version = 0;
  uint64_t payload_size = 0;
  uint32_t expected_crc = 0;
  if (!ReadU32(in, &version)) return Status::Error(path + ": truncated header");
  if (version != kContainerVersion) {
    return Status::Error(path + ": unsupported container version " +
                         std::to_string(version) + " (this build reads " +
                         std::to_string(kContainerVersion) + ")");
  }
  if (!ReadU64(in, &payload_size) || !ReadU32(in, &expected_crc)) {
    return Status::Error(path + ": truncated header");
  }
  // Bound the allocation by the bytes actually present in the file: a
  // corrupted size field must yield a Status, not a giant allocation.
  std::streampos data_start = in.tellg();
  in.seekg(0, std::ios::end);
  uint64_t remaining = static_cast<uint64_t>(in.tellg() - data_start);
  in.seekg(data_start);
  if (payload_size > remaining) {
    return Status::Error(path + ": truncated payload (" +
                         std::to_string(remaining) + " of " +
                         std::to_string(payload_size) + " bytes)");
  }
  if (payload_size < remaining) {
    // Trailing garbage is corruption too.
    return Status::Error(path + ": trailing bytes after payload "
                                "(corrupted file)");
  }
  std::string payload(payload_size, '\0');
  in.read(payload.data(), static_cast<std::streamsize>(payload_size));
  if (static_cast<uint64_t>(in.gcount()) != payload_size) {
    return Status::Error(path + ": truncated payload (" +
                         std::to_string(in.gcount()) + " of " +
                         std::to_string(payload_size) + " bytes)");
  }
  uint32_t actual_crc = Crc32(payload.data(), payload.size());
  if (actual_crc != expected_crc) {
    return Status::Error(path + ": checksum mismatch (file is corrupted)");
  }
  return payload;
}

}  // namespace io

namespace {

using io::ReadI64;
using io::ReadI64Vector;
using io::ReadString;
using io::ReadTensor;
using io::WriteI64;
using io::WriteI64Vector;
using io::WriteString;
using io::WriteTensor;

}  // namespace

void WriteGraphPayload(std::ostream& out, const HeteroGraph& graph) {
  WriteI64(out, graph.num_node_types());
  for (int64_t t = 0; t < graph.num_node_types(); ++t) {
    const HeteroGraph::NodeTypeInfo& info = graph.node_type(t);
    WriteString(out, info.name);
    WriteI64(out, info.count);
    WriteTensor(out, info.attributes);
  }
  WriteI64(out, graph.num_edge_types());
  for (int64_t e = 0; e < graph.num_edge_types(); ++e) {
    const HeteroGraph::EdgeTypeInfo& info = graph.edge_type(e);
    WriteString(out, info.name);
    WriteI64(out, info.src_type);
    WriteI64(out, info.dst_type);
  }
  WriteI64Vector(out, graph.edge_src());
  WriteI64Vector(out, graph.edge_dst());
  WriteI64Vector(out, graph.edge_type_ids());
  WriteI64(out, graph.target_node_type());
  WriteI64(out, graph.target_edge_type());
  WriteI64(out, graph.num_classes());
  // Target-type labels in local order.
  std::vector<int64_t> labels;
  if (graph.target_node_type() >= 0) {
    const HeteroGraph::NodeTypeInfo& target =
        graph.node_type(graph.target_node_type());
    labels.reserve(target.count);
    for (int64_t i = 0; i < target.count; ++i) {
      labels.push_back(graph.LabelOf(target.offset + i));
    }
  }
  WriteI64Vector(out, labels);
}

StatusOr<HeteroGraphPtr> ReadGraphPayload(std::istream& in) {
  auto fail = [](const char* what) {
    return StatusOr<HeteroGraphPtr>(
        Status::Error(std::string("malformed graph file: ") + what));
  };
  auto graph = std::make_shared<HeteroGraph>();
  int64_t num_node_types = 0;
  if (!ReadI64(in, &num_node_types) || num_node_types <= 0 ||
      num_node_types > (int64_t{1} << 20)) {
    return fail("node type count");
  }
  std::vector<Tensor> attributes(num_node_types);
  for (int64_t t = 0; t < num_node_types; ++t) {
    std::string name;
    int64_t count = 0;
    if (!ReadString(in, &name) || !ReadI64(in, &count) || count < 0 ||
        !ReadTensor(in, &attributes[t]) ||
        (attributes[t].numel() > 0 &&
         (attributes[t].dim() != 2 || attributes[t].shape()[0] != count))) {
      return fail("node type");
    }
    graph->AddNodeType(name, count);
  }
  int64_t num_edge_types = 0;
  if (!ReadI64(in, &num_edge_types) || num_edge_types < 0 ||
      num_edge_types > (int64_t{1} << 20)) {
    return fail("edge type count");
  }
  for (int64_t e = 0; e < num_edge_types; ++e) {
    std::string name;
    int64_t src = 0, dst = 0;
    if (!ReadString(in, &name) || !ReadI64(in, &src) || !ReadI64(in, &dst) ||
        src < 0 || src >= num_node_types || dst < 0 ||
        dst >= num_node_types) {
      return fail("edge type");
    }
    graph->AddEdgeType(name, src, dst);
  }
  std::vector<int64_t> src, dst, type;
  if (!ReadI64Vector(in, &src) || !ReadI64Vector(in, &dst) ||
      !ReadI64Vector(in, &type) || src.size() != dst.size() ||
      src.size() != type.size()) {
    return fail("edges");
  }
  int64_t target_node_type = 0, target_edge_type = 0, num_classes = 0;
  if (!ReadI64(in, &target_node_type) || !ReadI64(in, &target_edge_type) ||
      !ReadI64(in, &num_classes)) {
    return fail("task annotations");
  }
  std::vector<int64_t> labels;
  if (!ReadI64Vector(in, &labels)) return fail("labels");

  // Edge endpoints were stored as global ids; AddEdge wants type-local ids
  // inside the edge type's endpoint types.
  std::vector<int64_t> offsets(num_node_types, 0);
  for (int64_t t = 1; t < num_node_types; ++t) {
    offsets[t] = offsets[t - 1] + graph->node_type(t - 1).count;
  }
  auto to_local = [&](int64_t global, int64_t node_type, int64_t* local) {
    if (global < offsets[node_type]) return false;
    *local = global - offsets[node_type];
    return *local < graph->node_type(node_type).count;
  };
  for (size_t e = 0; e < src.size(); ++e) {
    if (type[e] < 0 || type[e] >= num_edge_types) return fail("edge type id");
    const HeteroGraph::EdgeTypeInfo& et = graph->edge_type(type[e]);
    int64_t src_local = 0, dst_local = 0;
    if (!to_local(src[e], et.src_type, &src_local) ||
        !to_local(dst[e], et.dst_type, &dst_local)) {
      return fail("edge endpoint");
    }
    graph->AddEdge(type[e], src_local, dst_local);
  }
  for (int64_t t = 0; t < num_node_types; ++t) {
    if (attributes[t].numel() > 0) {
      graph->SetAttributes(t, std::move(attributes[t]));
    }
  }
  if (target_node_type >= num_node_types) return fail("task annotations");
  if (target_node_type >= 0 && !labels.empty() &&
      static_cast<int64_t>(labels.size()) !=
          graph->node_type(target_node_type).count) {
    return fail("labels");
  }
  if (target_node_type >= 0) {
    graph->SetTargetNodeType(target_node_type);
    graph->SetLabels(std::move(labels), num_classes);
  }
  if (target_edge_type >= num_edge_types) return fail("task annotations");
  if (target_edge_type >= 0) graph->SetTargetEdgeType(target_edge_type);
  graph->Finalize();
  return StatusOr<HeteroGraphPtr>(std::move(graph));
}

Status SaveGraph(const HeteroGraph& graph, const std::string& path) {
  std::ostringstream body;
  WriteGraphPayload(body, graph);
  if (!body.good()) return Status::Error("serialization failed for " + path);
  return io::WriteFileAtomic(path, kGraphMagic, body.str());
}

StatusOr<HeteroGraphPtr> LoadGraph(const std::string& path) {
  StatusOr<std::string> payload = io::ReadFileChecked(path, kGraphMagic);
  if (!payload.ok()) return payload.status();
  std::istringstream in(payload.TakeValue());
  return ReadGraphPayload(in);
}

Status SaveDataset(const Dataset& dataset, const std::string& path) {
  std::ostringstream body;
  WriteString(body, dataset.name);
  WriteGraphPayload(body, *dataset.graph);
  WriteI64Vector(body, dataset.split.train);
  WriteI64Vector(body, dataset.split.val);
  WriteI64Vector(body, dataset.split.test);
  WriteI64Vector(body, dataset.latent_class);
  std::vector<int64_t> regimes(dataset.regime.size());
  for (size_t i = 0; i < dataset.regime.size(); ++i) {
    regimes[i] = static_cast<int64_t>(dataset.regime[i]);
  }
  WriteI64Vector(body, regimes);
  if (!body.good()) return Status::Error("serialization failed for " + path);
  return io::WriteFileAtomic(path, kDatasetMagic, body.str());
}

StatusOr<Dataset> LoadDataset(const std::string& path) {
  StatusOr<std::string> payload = io::ReadFileChecked(path, kDatasetMagic);
  if (!payload.ok()) return payload.status();
  std::istringstream in(payload.TakeValue());
  Dataset dataset;
  if (!ReadString(in, &dataset.name)) {
    return Status::Error("malformed dataset file: name");
  }
  StatusOr<HeteroGraphPtr> graph = ReadGraphPayload(in);
  if (!graph.ok()) return graph.status();
  dataset.graph = graph.TakeValue();
  std::vector<int64_t> regimes;
  if (!ReadI64Vector(in, &dataset.split.train) ||
      !ReadI64Vector(in, &dataset.split.val) ||
      !ReadI64Vector(in, &dataset.split.test) ||
      !ReadI64Vector(in, &dataset.latent_class) ||
      !ReadI64Vector(in, &regimes)) {
    return Status::Error("malformed dataset file: split/ground truth");
  }
  dataset.regime.resize(regimes.size());
  for (size_t i = 0; i < regimes.size(); ++i) {
    dataset.regime[i] = static_cast<CompletionRegime>(regimes[i]);
  }
  return dataset;
}

}  // namespace autoac
