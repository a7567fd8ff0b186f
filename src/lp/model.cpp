#include "lp/model.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

namespace mecar::lp {

int Model::add_variable(std::string name, double objective, double upper,
                        bool integral) {
  if (upper < 0.0) {
    throw std::invalid_argument("Model: variable upper bound below zero");
  }
  vars_.push_back(Variable{std::move(name), objective, upper, integral});
  fixed_values_.push_back(std::numeric_limits<double>::quiet_NaN());
  return static_cast<int>(vars_.size()) - 1;
}

int Model::add_constraint(std::string name, Sense sense, double rhs,
                          std::vector<Term> terms) {
  std::map<int, double> merged;
  for (const Term& t : terms) {
    if (t.col < 0 || t.col >= num_variables()) {
      throw std::out_of_range("Model: term references unknown column");
    }
    merged[t.col] += t.coeff;
  }
  Row row;
  row.name = std::move(name);
  row.sense = sense;
  row.rhs = rhs;
  for (const auto& [col, coeff] : merged) {
    if (coeff != 0.0) row.terms.push_back(Term{col, coeff});
  }
  rows_.push_back(std::move(row));
  return static_cast<int>(rows_.size()) - 1;
}

bool Model::has_integrality() const noexcept {
  return std::any_of(vars_.begin(), vars_.end(),
                     [](const Variable& v) { return v.integral; });
}

double Model::objective_value(const std::vector<double>& x) const {
  if (x.size() != vars_.size()) {
    throw std::invalid_argument("Model::objective_value: size mismatch");
  }
  double value = fixed_objective_;
  for (std::size_t j = 0; j < vars_.size(); ++j) {
    value += vars_[j].objective * x[j];
  }
  return value;
}

double Model::max_violation(const std::vector<double>& x) const {
  if (x.size() != vars_.size()) {
    throw std::invalid_argument("Model::max_violation: size mismatch");
  }
  double worst = 0.0;
  for (std::size_t j = 0; j < vars_.size(); ++j) {
    worst = std::max(worst, -x[j]);                 // x >= 0
    if (std::isfinite(vars_[j].upper)) {
      worst = std::max(worst, x[j] - vars_[j].upper);
    }
  }
  for (const Row& row : rows_) {
    double lhs = 0.0;
    for (const Term& t : row.terms) lhs += t.coeff * x[t.col];
    switch (row.sense) {
      case Sense::kLe: worst = std::max(worst, lhs - row.rhs); break;
      case Sense::kGe: worst = std::max(worst, row.rhs - lhs); break;
      case Sense::kEq: worst = std::max(worst, std::abs(lhs - row.rhs)); break;
    }
  }
  return worst;
}

Model Model::with_fixed(int col, double value) const {
  if (col < 0 || col >= num_variables()) {
    throw std::out_of_range("Model::with_fixed: unknown column");
  }
  if (value < -1e-9 || value > vars_[col].upper + 1e-9) {
    throw std::invalid_argument("Model::with_fixed: value outside bounds");
  }
  Model out = *this;
  out.fixed_objective_ += out.vars_[col].objective * value;
  out.vars_[col].objective = 0.0;
  out.vars_[col].upper = 0.0;  // the remaining free part is forced to 0
  out.vars_[col].integral = false;
  out.fixed_values_[col] = value;
  for (Row& row : out.rows_) {
    for (std::size_t k = 0; k < row.terms.size(); ++k) {
      if (row.terms[k].col == col) {
        row.rhs -= row.terms[k].coeff * value;
        row.terms.erase(row.terms.begin() + static_cast<std::ptrdiff_t>(k));
        break;
      }
    }
  }
  return out;
}

bool Model::is_fixed(int col) const {
  return !std::isnan(fixed_values_.at(col));
}

}  // namespace mecar::lp
