#ifndef AUTOAC_DATA_SERIALIZATION_H_
#define AUTOAC_DATA_SERIALIZATION_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "data/hgb_datasets.h"
#include "graph/hetero_graph.h"
#include "tensor/tensor.h"
#include "util/status.h"

namespace autoac {

/// Binary serialization of heterogeneous graphs, datasets, and (via the
/// io:: container below) search checkpoints. Every on-disk file is a
/// little-endian checksummed container:
///
///   magic[4] | version u32 | payload_size u64 | payload crc32 u32 | payload
///
/// Writers are atomic: the container goes to "<path>.tmp", is flushed and
/// fsync'd, and only then renamed over `path` — a crash mid-write leaves
/// either the previous file or a stray temp file, never a torn target.
/// Readers verify magic, version, length, and CRC before parsing a single
/// payload byte, so truncated or bit-flipped files yield a clear Status
/// error rather than garbage or a crash.
///
/// Graph payload layout (version 2; version 1 files predate the checksummed
/// header and are rejected with a version error):
///   node types: count, then per type {name, count, raw attribute tensor}
///   edge types: count, then per type {name, src_type, dst_type}
///   edges: count, then src/dst/type arrays (global ids)
///   task annotations: target node type, target edge type, labels,
///                     num_classes
///
/// Datasets additionally carry the split and the generator's planted
/// ground truth (latent classes, regimes).

namespace io {

/// Current container version shared by all AutoAC file kinds.
inline constexpr uint32_t kContainerVersion = 2;

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320). Pass a previous return
/// value as `crc` to checksum data in chunks.
uint32_t Crc32(const void* data, size_t size, uint32_t crc = 0);

/// Writes `magic|version|size|crc|payload` to `path` atomically (temp file
/// + flush + fsync + rename). Hits the "atomic_write" fault-injection site
/// mid-payload, so crash_resume_check.sh can kill a run inside the write.
Status WriteFileAtomic(const std::string& path, const char magic[4],
                       const std::string& payload);

/// Reads a container written by WriteFileAtomic: validates magic, version,
/// payload length, and CRC, and returns the payload bytes. The error
/// message distinguishes wrong-type (magic), version-mismatch, truncated,
/// and corrupted (checksum) files.
StatusOr<std::string> ReadFileChecked(const std::string& path,
                                      const char magic[4]);

// Primitive little-endian writers/readers over iostreams, shared by the
// graph/dataset payloads and the checkpoint codecs. Host endianness is
// assumed; the format is for local experiment caching, not interchange.
void WriteU32(std::ostream& out, uint32_t v);
void WriteU64(std::ostream& out, uint64_t v);
void WriteI64(std::ostream& out, int64_t v);
void WriteF64(std::ostream& out, double v);
void WriteString(std::ostream& out, const std::string& s);
void WriteI64Vector(std::ostream& out, const std::vector<int64_t>& v);
void WriteF32Vector(std::ostream& out, const std::vector<float>& v);
void WriteF64Vector(std::ostream& out, const std::vector<double>& v);
void WriteTensor(std::ostream& out, const Tensor& t);

// Readers return false on stream exhaustion or implausible sizes; callers
// translate that into a Status. (The CRC check upstream already rejects
// corruption; these guards keep raw-stream parsing safe regardless.)
bool ReadU32(std::istream& in, uint32_t* v);
bool ReadU64(std::istream& in, uint64_t* v);
bool ReadI64(std::istream& in, int64_t* v);
bool ReadF64(std::istream& in, double* v);
bool ReadString(std::istream& in, std::string* s);
bool ReadI64Vector(std::istream& in, std::vector<int64_t>* v);
bool ReadF32Vector(std::istream& in, std::vector<float>* v);
bool ReadF64Vector(std::istream& in, std::vector<double>* v);
bool ReadTensor(std::istream& in, Tensor* t);

}  // namespace io

/// Serializes the graph body — the payload SaveGraph wraps in the container
/// framing — onto a stream. Exposed so other container kinds (the frozen
/// serving artifact) can embed a full graph in their own payload.
void WriteGraphPayload(std::ostream& out, const HeteroGraph& graph);

/// Parses a graph body written by WriteGraphPayload. The returned graph is
/// finalized. Allocation-bounded: corrupted length fields fail cleanly.
StatusOr<HeteroGraphPtr> ReadGraphPayload(std::istream& in);

/// Writes `graph` to `path` (atomically). Returns an error status on IO
/// failure.
Status SaveGraph(const HeteroGraph& graph, const std::string& path);

/// Reads a graph written by SaveGraph. The returned graph is finalized.
StatusOr<HeteroGraphPtr> LoadGraph(const std::string& path);

/// Writes a full dataset (graph + split + planted ground truth).
Status SaveDataset(const Dataset& dataset, const std::string& path);

/// Reads a dataset written by SaveDataset.
StatusOr<Dataset> LoadDataset(const std::string& path);

}  // namespace autoac

#endif  // AUTOAC_DATA_SERIALIZATION_H_
