// Mechanism composition: protect with m1, then m2, then ...
//
// Practical deployments layer defenses — e.g. Geo-I noise followed by
// grid discretization (the "remap to a coarse alphabet" post-processing
// of the Geo-I paper), or dropout followed by noise. Composition is a
// first-class Mechanism, so the whole framework (sweeps, models,
// configuration) applies to a stack as readily as to a single layer.
// Parameters are exposed with the stage index as a prefix
// ("0.epsilon", "1.cell_size") so that stages with identically named
// knobs stay distinguishable.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "lppm/mechanism.h"

namespace locpriv::lppm {

class ComposedMechanism final : public Mechanism {
 public:
  /// Takes ownership of the stages; applied first-to-last. Throws
  /// std::invalid_argument on an empty stack or a null stage.
  explicit ComposedMechanism(std::vector<std::unique_ptr<Mechanism>> stages);

  [[nodiscard]] const std::string& name() const override;
  /// A stack is deterministic exactly when every stage is.
  [[nodiscard]] bool deterministic() const override;
  [[nodiscard]] const std::vector<ParameterSpec>& parameters() const override;
  void set_parameter(const std::string& param, double value) override;
  [[nodiscard]] double parameter(const std::string& param) const override;
  [[nodiscard]] trace::Trace protect(const trace::Trace& input, std::uint64_t seed) const override;

  [[nodiscard]] const Mechanism& stage(std::size_t i) const { return *stages_.at(i); }

 private:
  /// Splits "2.epsilon" into (stage pointer, inner name); throws on a
  /// malformed or out-of-range prefix.
  [[nodiscard]] std::pair<Mechanism*, std::string> resolve(const std::string& param) const;

  std::vector<std::unique_ptr<Mechanism>> stages_;
  std::string name_;
  std::vector<ParameterSpec> specs_;  ///< prefixed copies of stage specs
};

}  // namespace locpriv::lppm
