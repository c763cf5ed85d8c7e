#include "reference.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>

namespace e2e {

namespace {

using kgag::serve::TopKRequest;
using kgag::serve::WireResponse;

// QuantType tags of the artifact format (tensor/quant.h).
constexpr uint8_t kFp64 = 0, kFp32 = 1, kFp16 = 2, kInt8 = 3;

size_t ElemBytes(uint8_t type) {
  switch (type) {
    case kFp64: return 8;
    case kFp32: return 4;
    case kFp16: return 2;
    case kInt8: return 1;
  }
  return 0;
}

/// IEEE binary16 -> double, written out from the format definition.
double HalfToDouble(uint16_t h) {
  const int sign = (h >> 15) & 1;
  const int exp = (h >> 10) & 0x1f;
  const int mant = h & 0x3ff;
  double v;
  if (exp == 0) {
    v = std::ldexp(static_cast<double>(mant), -24);
  } else if (exp == 31) {
    v = mant == 0 ? INFINITY : NAN;
  } else {
    v = std::ldexp(static_cast<double>(mant + 1024), exp - 25);
  }
  return sign ? -v : v;
}

/// Little-endian cursor over the mapped header.
struct Cursor {
  const uint8_t* p;
  size_t left;
  template <typename T>
  bool Get(T* out) {
    if (left < sizeof(T)) return false;
    std::memcpy(out, p, sizeof(T));
    p += sizeof(T);
    left -= sizeof(T);
    return true;
  }
};

struct Blob {
  uint32_t tag = 0;
  uint8_t dtype = 0;
  uint64_t rows = 0, cols = 0, offset = 0, nbytes = 0;
};

uint32_t Tag(const char* s) {
  return static_cast<uint32_t>(static_cast<uint8_t>(s[0])) |
         static_cast<uint32_t>(static_cast<uint8_t>(s[1])) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(s[2])) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(s[3])) << 24;
}

double Dot(const double* a, const double* b, size_t n) {
  double s = 0;
  for (size_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

double Tol(double ref) { return kScoreTol * (1.0 + std::fabs(ref)); }

std::set<int32_t> ValidExcludes(const RefModel& m, const TopKRequest& r) {
  std::set<int32_t> ex;
  for (int32_t e : r.exclude_seen) {
    if (e >= 0 && static_cast<uint32_t>(e) < m.num_items()) ex.insert(e);
  }
  return ex;
}

std::string Str(const char* fmt, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

}  // namespace

RefModel::~RefModel() {
  if (map_ != nullptr) ::munmap(map_, map_bytes_);
}

const char* RefModel::precision() const {
  switch (quant_) {
    case kFp64: return "fp64";
    case kFp32: return "fp32";
    case kFp16: return "fp16";
    case kInt8: return "int8";
  }
  return "?";
}

std::shared_ptr<const RefModel> RefModel::Load(const std::string& path,
                                               std::string* error) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    *error = "cannot open " + path;
    return nullptr;
  }
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 64) {
    ::close(fd);
    *error = "short artifact " + path;
    return nullptr;
  }
  const size_t size = static_cast<size_t>(st.st_size);
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    *error = "mmap failed: " + path;
    return nullptr;
  }
  std::shared_ptr<RefModel> m(new RefModel());
  m->map_ = map;
  m->map_bytes_ = size;
  const uint8_t* base = static_cast<const uint8_t*>(map);
  Cursor c{base, size};
  char magic[8];
  uint32_t version = 0, blob_count = 0;
  uint8_t use_sp = 0, use_pi = 0;
  bool ok = c.Get(&magic) && std::memcmp(magic, "KGAGSRV2", 8) == 0 &&
            c.Get(&version) && c.Get(&m->dim_) && c.Get(&m->group_size_) &&
            c.Get(&use_sp) && c.Get(&use_pi) && c.Get(&m->num_users_) &&
            c.Get(&m->num_items_) && c.Get(&m->quant_) &&
            c.Get(&m->block_) && c.Get(&blob_count) && blob_count < 64 &&
            ElemBytes(m->quant_) != 0;
  m->use_sp_ = use_sp != 0;
  m->use_pi_ = use_pi != 0;
  std::vector<Blob> blobs(ok ? blob_count : 0);
  for (Blob& b : blobs) {
    uint32_t crc;
    ok = ok && c.Get(&b.tag) && c.Get(&b.dtype) && c.Get(&b.rows) &&
         c.Get(&b.cols) && c.Get(&b.offset) && c.Get(&b.nbytes) &&
         c.Get(&crc) && b.offset <= size && b.nbytes <= size - b.offset &&
         ElemBytes(b.dtype) != 0 && b.rows < (uint64_t{1} << 32) &&
         b.cols < (uint64_t{1} << 32) &&
         b.rows * b.cols * ElemBytes(b.dtype) == b.nbytes;
  }
  if (!ok) {
    *error = "malformed KGAGSRV2 header: " + path;
    return nullptr;
  }
  auto find = [&](const char* tag) -> const Blob* {
    for (const Blob& b : blobs) {
      if (b.tag == Tag(tag)) return &b;
    }
    return nullptr;
  };
  const Blob* urep = find("UREP");
  const Blob* irep = find("IREP");
  if (urep == nullptr || irep == nullptr || urep->rows != m->num_users_ ||
      irep->rows != m->num_items_ || urep->cols != m->dim_ ||
      irep->cols != m->dim_ || urep->dtype != m->quant_) {
    *error = "rep tables missing or mis-shaped: " + path;
    return nullptr;
  }
  m->users_ = {m->quant_, base + urep->offset, nullptr};
  m->items_ = {m->quant_, base + irep->offset, nullptr};
  if (m->quant_ == kInt8) {
    const Blob* us = find("USCL");
    const Blob* is = find("ISCL");
    const size_t spr =
        m->block_ == 0 ? 1 : (m->dim_ + m->block_ - 1) / m->block_;
    if (us == nullptr || is == nullptr || us->rows * us->cols != m->num_users_ * spr ||
        is->rows * is->cols != m->num_items_ * spr) {
      *error = "int8 scales missing: " + path;
      return nullptr;
    }
    m->users_.scales = reinterpret_cast<const float*>(base + us->offset);
    m->items_.scales = reinterpret_cast<const float*>(base + is->offset);
  }
  auto copy = [&](const char* tag, std::vector<double>* out) {
    const Blob* b = find(tag);
    if (b == nullptr || b->dtype != kFp64) return;
    out->resize(b->rows * b->cols);
    std::memcpy(out->data(), base + b->offset, b->nbytes);
  };
  copy("ATW1", &m->w1_);
  copy("ATW2", &m->w2_);
  copy("ATTB", &m->bias_);
  copy("ATVC", &m->vc_);
  return m;
}

std::shared_ptr<const RefModel> RefModel::FromTables(
    uint32_t dim, uint32_t group_size, std::vector<double> users,
    std::vector<double> items, std::vector<double> w1, std::vector<double> w2,
    std::vector<double> bias, std::vector<double> vc) {
  std::shared_ptr<RefModel> m(new RefModel());
  m->dim_ = dim;
  m->group_size_ = group_size;
  m->num_users_ = static_cast<uint32_t>(users.size() / dim);
  m->num_items_ = static_cast<uint32_t>(items.size() / dim);
  m->owned_users_ = std::move(users);
  m->owned_items_ = std::move(items);
  m->users_ = {kFp64,
               reinterpret_cast<const uint8_t*>(m->owned_users_.data()),
               nullptr};
  m->items_ = {kFp64,
               reinterpret_cast<const uint8_t*>(m->owned_items_.data()),
               nullptr};
  m->w1_ = std::move(w1);
  m->w2_ = std::move(w2);
  m->bias_ = std::move(bias);
  m->vc_ = std::move(vc);
  return m;
}

void RefModel::Row(const Table& t, uint32_t r, double* out) const {
  const size_t d = dim_;
  const uint8_t* row = t.codes + static_cast<size_t>(r) * d * ElemBytes(t.type);
  switch (t.type) {
    case kFp64:
      std::memcpy(out, row, d * sizeof(double));
      return;
    case kFp32:
      for (size_t c = 0; c < d; ++c) {
        float f;
        std::memcpy(&f, row + 4 * c, 4);
        out[c] = f;
      }
      return;
    case kFp16:
      for (size_t c = 0; c < d; ++c) {
        uint16_t h;
        std::memcpy(&h, row + 2 * c, 2);
        out[c] = HalfToDouble(h);
      }
      return;
    case kInt8: {
      const size_t bs = block_ == 0 ? d : block_;
      const size_t spr = (d + bs - 1) / bs;
      for (size_t c = 0; c < d; ++c) {
        const double scale = t.scales[static_cast<size_t>(r) * spr + c / bs];
        out[c] = static_cast<double>(static_cast<int8_t>(row[c])) * scale;
      }
      return;
    }
  }
}

void RefModel::UserRow(uint32_t u, double* out) const { Row(users_, u, out); }
void RefModel::ItemRow(uint32_t v, double* out) const { Row(items_, v, out); }

RefModel::Group RefModel::MakeGroup(const std::vector<int32_t>& members) const {
  Group g;
  g.members = members;
  std::sort(g.members.begin(), g.members.end());
  g.members.erase(std::unique(g.members.begin(), g.members.end()),
                  g.members.end());
  const size_t l = g.members.size();
  const size_t d = dim_;
  g.reps.resize(l * d);
  for (size_t i = 0; i < l; ++i) {
    UserRow(static_cast<uint32_t>(g.members[i]), &g.reps[i * d]);
  }
  g.pi.assign(l, 0.0);
  if (!use_pi_ || w1_.empty()) return g;
  const bool use_w2 = !w2_.empty() && l == group_size_ && l > 1;
  for (size_t i = 0; i < l; ++i) {
    std::vector<double> pre(d, 0.0);
    for (size_t r = 0; r < d; ++r) {
      for (size_t c = 0; c < d; ++c) pre[c] += g.reps[i * d + r] * w1_[r * d + c];
    }
    if (use_w2) {
      size_t off = 0;
      for (size_t j = 0; j < l; ++j) {
        if (j == i) continue;
        for (size_t r = 0; r < d; ++r) {
          for (size_t c = 0; c < d; ++c) {
            pre[c] += g.reps[j * d + r] * w2_[(off + r) * d + c];
          }
        }
        off += d;
      }
    }
    double pi = 0;
    for (size_t c = 0; c < d; ++c) {
      pi += std::max(0.0, pre[c] + bias_[c]) * vc_[c];
    }
    g.pi[i] = pi;
  }
  return g;
}

std::vector<double> RefModel::ScoreAll(const Group& g) const {
  const size_t l = g.members.size();
  const size_t d = dim_;
  std::vector<double> scores(num_items_);
  std::vector<double> v(d), s(l), w(l);
  for (uint32_t item = 0; item < num_items_; ++item) {
    ItemRow(item, v.data());
    double m = -INFINITY;
    for (size_t i = 0; i < l; ++i) {
      s[i] = Dot(&g.reps[i * d], v.data(), d);
      m = std::max(m, (use_sp_ ? s[i] : 0.0) + g.pi[i]);
    }
    double num = 0, den = 0;
    for (size_t i = 0; i < l; ++i) {
      w[i] = std::exp((use_sp_ ? s[i] : 0.0) + g.pi[i] - m);
      num += w[i] * s[i];
      den += w[i];
    }
    scores[item] = num / den;
  }
  return scores;
}

void RefModel::AffinityRange(const Group& g, uint32_t item, double* lo,
                             double* hi) const {
  const size_t d = dim_;
  std::vector<double> v(d);
  ItemRow(item, v.data());
  *lo = INFINITY;
  *hi = -INFINITY;
  for (size_t i = 0; i < g.members.size(); ++i) {
    const double s = Dot(&g.reps[i * d], v.data(), d);
    *lo = std::min(*lo, s);
    *hi = std::max(*hi, s);
  }
}

std::string CheckInvariants(const RefModel& model, const TopKRequest& request,
                            const WireResponse& response) {
  if (response.status != kgag::serve::WireStatus::kOk) return "status not ok";
  const std::set<int32_t> ex = ValidExcludes(model, request);
  const size_t eligible = model.num_items() - ex.size();
  const size_t want = std::min(request.k, eligible);
  if (response.items.size() != want || response.scores.size() != want) {
    return Str("returned %.0f items, want %.0f", response.items.size(), want);
  }
  const RefModel::Group g = model.MakeGroup(request.members);
  std::set<int32_t> seen;
  for (size_t j = 0; j < want; ++j) {
    const int32_t item = response.items[j];
    const double s = response.scores[j];
    if (item < 0 || static_cast<uint32_t>(item) >= model.num_items()) {
      return Str("item id %.0f out of range", item);
    }
    if (!seen.insert(item).second) return Str("item %.0f repeated", item);
    if (ex.count(item) != 0) return Str("excluded item %.0f returned", item);
    if (j > 0) {
      const double prev = response.scores[j - 1];
      if (s > prev || (s == prev && item < response.items[j - 1])) {
        return Str("rank %.0f out of order (%.17g after %.17g)", j, s, prev);
      }
    }
    double lo, hi;
    model.AffinityRange(g, static_cast<uint32_t>(item), &lo, &hi);
    if (!(s >= lo - Tol(lo) && s <= hi + Tol(hi))) {
      return Str("score %.17g outside member range [%.17g, %.17g]", s, lo, hi);
    }
  }
  return "";
}

WireResponse ReferenceTopK(const RefModel& model, const TopKRequest& request) {
  const std::set<int32_t> ex = ValidExcludes(model, request);
  const std::vector<double> all = model.ScoreAll(model.MakeGroup(request.members));
  std::vector<int32_t> order;
  for (uint32_t v = 0; v < model.num_items(); ++v) {
    if (ex.count(static_cast<int32_t>(v)) == 0) order.push_back(static_cast<int32_t>(v));
  }
  const size_t k = std::min(request.k, order.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<long>(k),
                    order.end(), [&](int32_t a, int32_t b) {
                      return all[a] != all[b] ? all[a] > all[b] : a < b;
                    });
  WireResponse r;
  for (size_t j = 0; j < k; ++j) {
    r.items.push_back(order[j]);
    r.scores.push_back(all[order[j]]);
  }
  return r;
}

std::string CheckAgainstReference(const RefModel& model,
                                  const TopKRequest& request,
                                  const WireResponse& response) {
  const WireResponse ref = ReferenceTopK(model, request);
  const std::vector<double> all = model.ScoreAll(model.MakeGroup(request.members));
  if (response.items.size() != ref.items.size()) {
    return Str("returned %.0f items, reference %.0f", response.items.size(),
               ref.items.size());
  }
  for (size_t j = 0; j < ref.items.size(); ++j) {
    const int32_t item = response.items[j];
    if (item < 0 || static_cast<uint32_t>(item) >= model.num_items()) {
      return Str("item id %.0f out of range", item);
    }
    if (std::fabs(response.scores[j] - all[item]) > Tol(all[item])) {
      return Str("item %.0f scored %.17g, reference %.17g", item,
                 response.scores[j], all[item]);
    }
    // A different item may hold rank j only when it ties the reference's
    // item there to within tolerance.
    if (item != ref.items[j] &&
        std::fabs(all[item] - ref.scores[j]) > Tol(ref.scores[j])) {
      return Str("rank %.0f holds item %.0f, reference item %.0f", j, item,
                 ref.items[j]);
    }
  }
  return "";
}

std::string CheckNewEdges(uint64_t reported_edges, uint64_t expected_pairs) {
  if (reported_edges == 2 * expected_pairs) return "";
  return Str("refresh reported %.0f new directed edges, expected 2 x %.0f pairs",
             static_cast<double>(reported_edges),
             static_cast<double>(expected_pairs));
}

int RunSelfTest() {
  // Fixture: two versions of a small fp64 model (the second a perturbed
  // copy, as a refresh would publish) and one trained-size group.
  const uint32_t d = 4, group_size = 3, users = 6, items = 12;
  uint64_t state = 12345;
  auto rnd = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(state >> 11) * 0x1.0p-53 - 0.5;
  };
  auto table = [&](size_t n) {
    std::vector<double> t(n);
    for (double& x : t) x = rnd();
    return t;
  };
  std::vector<double> u = table(users * d), v = table(items * d);
  std::vector<double> w1 = table(d * d), w2 = table(d * (group_size - 1) * d);
  std::vector<double> b = table(d), vc = table(d);
  std::vector<double> u2 = u, v2 = v;
  for (double& x : u2) x += 0.2 * rnd();
  for (double& x : v2) x += 0.2 * rnd();
  const auto old_model = RefModel::FromTables(d, group_size, u, v, w1, w2, b, vc);
  const auto model = RefModel::FromTables(d, group_size, u2, v2, w1, w2, b, vc);

  TopKRequest req;
  req.members = {4, 0, 2};
  req.k = 5;
  const WireResponse unexcluded = ReferenceTopK(*model, req);
  req.exclude_seen = {unexcluded.items[1]};
  const WireResponse good = ReferenceTopK(*model, req);

  auto verdict = [&](const RefModel& m, const WireResponse& r) {
    std::string why = CheckInvariants(m, req, r);
    if (why.empty()) why = CheckAgainstReference(m, req, r);
    return why;
  };
  int missed = 0;
  auto expect = [&](const char* name, const std::string& why, bool should_fail) {
    const bool caught = !why.empty();
    if (caught != should_fail) ++missed;
    std::printf("selftest: %-22s %s%s%s\n", name,
                should_fail ? (caught ? "caught: " : "NOT CAUGHT")
                            : (caught ? "REJECTED: " : "accepted"),
                caught ? why.c_str() : "", "");
  };
  expect("correct_answer", verdict(*model, good), false);

  WireResponse swapped = good;
  std::swap(swapped.items[0], swapped.items[1]);
  expect("swapped_items", verdict(*model, swapped), true);

  WireResponse perturbed = good;
  perturbed.scores[2] += 10 * Tol(perturbed.scores[2]);
  expect("perturbed_score", verdict(*model, perturbed), true);

  WireResponse excluded = good;
  excluded.items.back() = req.exclude_seen[0];
  excluded.scores.back() = std::min(excluded.scores.back(),
                                    excluded.scores[excluded.scores.size() - 2]);
  expect("excluded_item", verdict(*model, excluded), true);

  expect("previous_version", verdict(*model, ReferenceTopK(*old_model, req)),
         true);

  expect("edge_count_correct", CheckNewEdges(2 * 37, 37), false);
  expect("edge_count_wrong", CheckNewEdges(2 * 37 + 2, 37), true);
  return missed;
}

}  // namespace e2e
