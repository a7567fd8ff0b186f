// Linear/integer program model builder.
//
// The paper's formulations (ILP-RM, LP, LP-PT) are instances of
//   max  c'x
//   s.t. a_i'x {<=,=,>=} b_i          for each row i
//        0 <= x_j <= u_j              (u_j may be +infinity)
//        x_j integral                 for flagged variables
//
// `Model` stores rows sparsely (the slot-indexed LP has ~4 nonzeros per
// column) and is consumed by `SimplexSolver` (LP relaxation) and
// `BranchAndBound` (integral models).
#pragma once

#include <limits>
#include <string>
#include <vector>

namespace mecar::lp {

/// Constraint sense.
enum class Sense { kLe, kEq, kGe };

/// One nonzero of a constraint row.
struct Term {
  int col = 0;
  double coeff = 0.0;
};

/// Sparse constraint row.
struct Row {
  std::string name;
  Sense sense = Sense::kLe;
  double rhs = 0.0;
  std::vector<Term> terms;
};

/// Variable metadata. Lower bound is always 0 (shift externally if needed).
struct Variable {
  std::string name;
  double objective = 0.0;
  double upper = std::numeric_limits<double>::infinity();
  bool integral = false;
};

constexpr double kInf = std::numeric_limits<double>::infinity();

/// An LP/MIP model built by appending variables and rows. Column and row
/// indices are returned from the add_* calls.
class Model {
 public:
  /// Adds a variable; returns its column index.
  int add_variable(std::string name, double objective,
                   double upper = kInf, bool integral = false);

  /// Adds a constraint row; returns its row index. The row's terms
  /// ascend by column: the coefficients of a repeated column are summed
  /// from 0.0 in the order given, and zero sums are dropped. Throws
  /// std::out_of_range when a term names an unknown column.
  int add_constraint(std::string name, Sense sense, double rhs,
                     std::vector<Term> terms);

  int num_variables() const noexcept { return static_cast<int>(vars_.size()); }
  int num_constraints() const noexcept {
    return static_cast<int>(rows_.size());
  }

  const Variable& variable(int col) const { return vars_.at(col); }
  const Row& row(int r) const { return rows_.at(r); }
  const std::vector<Variable>& variables() const noexcept { return vars_; }
  const std::vector<Row>& rows() const noexcept { return rows_; }

  bool has_integrality() const noexcept;

  /// Evaluates the objective at a point (no feasibility check).
  double objective_value(const std::vector<double>& x) const;

  /// Maximum constraint violation of `x` (0 when feasible within `tol`);
  /// also checks variable bounds. Used by tests and the feasibility checker.
  double max_violation(const std::vector<double>& x) const;

  /// Returns a copy of the model with variable `col` fixed to `value`:
  /// the column is removed from rows (its contribution moved into rhs) and
  /// its objective contribution is accumulated into `fixed_objective`.
  /// Column indices of the returned model are unchanged (the fixed variable
  /// becomes a zero-cost, zero-column variable clamped to [value, value]
  /// conceptually; its reported solution value is `value`).
  Model with_fixed(int col, double value) const;

  /// Objective constant accumulated by `with_fixed`.
  double fixed_objective() const noexcept { return fixed_objective_; }

  /// Values of fixed variables (NaN when not fixed).
  const std::vector<double>& fixed_values() const noexcept {
    return fixed_values_;
  }
  bool is_fixed(int col) const;

 private:
  std::vector<Variable> vars_;
  std::vector<Row> rows_;
  std::vector<double> fixed_values_;  // NaN = free
  double fixed_objective_ = 0.0;
};

}  // namespace mecar::lp
