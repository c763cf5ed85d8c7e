// Output checks of the end-to-end benchmark, computed apart from the
// program: the benchmark parses the KGAGSRV2 artifact bytes itself
// (header, blob index, fp64/fp32/fp16/int8 codes) and scores groups in
// plain fp64 loops with std::exp, following the paper's Eq. 12-13 on
// frozen representations:
//   pi_i     = vc . ReLU(W1 u_i + W2 concat(peers_i) + b)
//              (W2 only when |members| equals the trained group size)
//   alpha_i  = softmax_i(<u_i, v> * use_sp + pi_i)
//   score(v) = sum_i alpha_i <u_i, v>
// None of the program's scoring, dequantizing or loading code is used.
#ifndef E2E_BENCH_REFERENCE_H_
#define E2E_BENCH_REFERENCE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/net_protocol.h"

namespace e2e {

/// Relative tolerance between a served score and the fp64 reference:
/// |served - ref| <= kScoreTol * (1 + |ref|). It covers FastExp (~1e-14
/// relative) and the kernels' accumulation order (~dim * 2^-53); the
/// precision tier needs no allowance because the reference reads the
/// same stored codes the server does.
inline constexpr double kScoreTol = 1e-9;

/// \brief A frozen model as the benchmark reads it.
class RefModel {
 public:
  /// Maps and parses a KGAGSRV2 artifact. Null (and `error` set) on a
  /// malformed file.
  static std::shared_ptr<const RefModel> Load(const std::string& path,
                                              std::string* error);
  /// An in-memory fp64 model (self-test fixtures).
  static std::shared_ptr<const RefModel> FromTables(
      uint32_t dim, uint32_t group_size, std::vector<double> users,
      std::vector<double> items, std::vector<double> w1,
      std::vector<double> w2, std::vector<double> bias,
      std::vector<double> vc);
  ~RefModel();
  RefModel(const RefModel&) = delete;
  RefModel& operator=(const RefModel&) = delete;

  uint32_t dim() const { return dim_; }
  uint32_t num_users() const { return num_users_; }
  uint32_t num_items() const { return num_items_; }
  uint32_t group_size() const { return group_size_; }
  const char* precision() const;

  void UserRow(uint32_t u, double* out) const;
  void ItemRow(uint32_t v, double* out) const;

  /// Canonical members (sorted, unique) and their pi logits.
  struct Group {
    std::vector<int32_t> members;
    std::vector<double> reps;  ///< |members| x dim
    std::vector<double> pi;
  };
  Group MakeGroup(const std::vector<int32_t>& members) const;

  /// Reference score of every item for `g`.
  std::vector<double> ScoreAll(const Group& g) const;

  /// [min_i <u_i, v>, max_i <u_i, v>] for item v.
  void AffinityRange(const Group& g, uint32_t v, double* lo,
                     double* hi) const;

 private:
  RefModel() = default;
  struct Table {
    uint8_t type = 0;  ///< QuantType tag
    const uint8_t* codes = nullptr;
    const float* scales = nullptr;
  };
  void Row(const Table& t, uint32_t r, double* out) const;

  uint32_t dim_ = 0;
  uint32_t group_size_ = 0;
  bool use_sp_ = true;
  bool use_pi_ = true;
  uint32_t num_users_ = 0;
  uint32_t num_items_ = 0;
  uint8_t quant_ = 0;
  uint32_t block_ = 0;
  Table users_;
  Table items_;
  std::vector<double> w1_, w2_, bias_, vc_;
  void* map_ = nullptr;
  size_t map_bytes_ = 0;
  std::vector<double> owned_users_, owned_items_;
};

/// Checks every served response must pass: count = min(k, eligible);
/// scores non-increasing with ties to the smaller id; ids in range and
/// distinct; no excluded item; every score inside the group's
/// member-affinity range. Returns "" when it passes, else the reason.
std::string CheckInvariants(const RefModel& model,
                            const kgag::serve::TopKRequest& request,
                            const kgag::serve::WireResponse& response);

/// Compares a response with the reference ranking: the same items (a
/// near-tie within tolerance may swap) with scores within kScoreTol.
std::string CheckAgainstReference(const RefModel& model,
                                  const kgag::serve::TopKRequest& request,
                                  const kgag::serve::WireResponse& response);

/// The reference answer itself (what a correct server returns).
kgag::serve::WireResponse ReferenceTopK(
    const RefModel& model, const kgag::serve::TopKRequest& request);

/// online_refresh: a refresh's reported new_edges (directed Interact
/// edges, forward + inverse) against the benchmark's count of new
/// distinct (user, item) pairs in the window.
std::string CheckNewEdges(uint64_t reported_edges, uint64_t expected_pairs);

/// Feeds every check a deliberately wrong answer (swapped items, a score
/// perturbed beyond tolerance, a returned excluded item, a response from
/// the previous artifact version, a miscounted edge total) and returns
/// how many of them were NOT caught (0 = every check works). Prints one
/// line per case.
int RunSelfTest();

}  // namespace e2e

#endif  // E2E_BENCH_REFERENCE_H_
