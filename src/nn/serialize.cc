#include "nn/serialize.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>

namespace lncl::nn {

namespace {
constexpr uint32_t kMagic = 0x4c4e434c;  // "LNCL"

void WriteU32(std::ostream& os, uint32_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

bool ReadU32(std::istream& is, uint32_t* v) {
  is.read(reinterpret_cast<char*>(v), sizeof(*v));
  return static_cast<bool>(is);
}
}  // namespace

void SaveParams(std::ostream& os, const std::vector<Parameter*>& params) {
  WriteU32(os, kMagic);
  WriteU32(os, static_cast<uint32_t>(params.size()));
  for (const Parameter* p : params) {
    WriteU32(os, static_cast<uint32_t>(p->name.size()));
    os.write(p->name.data(), static_cast<std::streamsize>(p->name.size()));
    WriteU32(os, static_cast<uint32_t>(p->value.rows()));
    WriteU32(os, static_cast<uint32_t>(p->value.cols()));
    os.write(reinterpret_cast<const char*>(p->value.data()),
             static_cast<std::streamsize>(p->value.size() * sizeof(float)));
  }
}

bool LoadParams(std::istream& is, const std::vector<Parameter*>& params) {
  uint32_t magic = 0, count = 0;
  if (!ReadU32(is, &magic) || magic != kMagic) return false;
  if (!ReadU32(is, &count) || count != params.size()) return false;
  // Every record is read and checked into staging first; parameters change
  // only once the whole file has validated.
  std::vector<util::Matrix> staged;
  staged.reserve(params.size());
  std::string name;
  for (const Parameter* p : params) {
    uint32_t name_len = 0, rows = 0, cols = 0;
    // The expected name bounds the allocation: a corrupt length field is
    // rejected before any bytes are requested for it.
    if (!ReadU32(is, &name_len) || name_len != p->name.size()) return false;
    name.resize(name_len);
    is.read(name.data(), name_len);
    if (!is || name != p->name) return false;
    if (!ReadU32(is, &rows) || !ReadU32(is, &cols)) return false;
    if (static_cast<int>(rows) != p->value.rows() ||
        static_cast<int>(cols) != p->value.cols()) {
      return false;
    }
    util::Matrix& value = staged.emplace_back();
    value.ResizeNoZero(p->value.rows(), p->value.cols());
    is.read(reinterpret_cast<char*>(value.data()),
            static_cast<std::streamsize>(value.size() * sizeof(float)));
    if (!is) return false;
  }
  for (size_t i = 0; i < params.size(); ++i) {
    std::copy_n(staged[i].data(), staged[i].size(), params[i]->value.data());
  }
  return true;
}

std::vector<util::Matrix> SnapshotValues(
    const std::vector<Parameter*>& params) {
  std::vector<util::Matrix> snapshot;
  snapshot.reserve(params.size());
  for (const Parameter* p : params) snapshot.push_back(p->value);
  return snapshot;
}

void RestoreValues(const std::vector<util::Matrix>& snapshot,
                   const std::vector<Parameter*>& params) {
  for (size_t i = 0; i < params.size() && i < snapshot.size(); ++i) {
    params[i]->value = snapshot[i];
  }
}

}  // namespace lncl::nn
