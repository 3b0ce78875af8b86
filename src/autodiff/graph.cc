#include "autodiff/graph.h"

#include <cmath>

#include "common/logging.h"
#include "common/string_util.h"

namespace lkpdpp::ad {

void GradientWorkspace::AccumulateDense(Param* param, Matrix g) {
  LKP_CHECK(param != nullptr);
  LKP_CHECK(g.rows() == param->value.rows() &&
            g.cols() == param->value.cols())
      << "dense gradient shape mismatch for param " << param->name;
  entries_.push_back(Entry{param, {}, std::move(g)});
}

void GradientWorkspace::AccumulateRows(Param* param,
                                       const std::vector<int>& rows,
                                       Matrix up) {
  LKP_CHECK(param != nullptr);
  LKP_CHECK_EQ(static_cast<int>(rows.size()), up.rows());
  LKP_CHECK_EQ(up.cols(), param->value.cols());
  entries_.push_back(Entry{param, rows, std::move(up)});
}

void GradientWorkspace::FlushIntoParams() const {
  for (const Entry& e : entries_) {
    Matrix& grad = e.param->grad;
    if (e.rows.empty()) {
      grad += e.data;
      continue;
    }
    for (size_t r = 0; r < e.rows.size(); ++r) {
      const int row = e.rows[r];
      for (int c = 0; c < e.data.cols(); ++c) {
        grad(row, c) += e.data(static_cast<int>(r), c);
      }
    }
  }
}

const Matrix& Tensor::value() const {
  LKP_CHECK(valid());
  return graph->value(*this);
}

const Matrix& Graph::value(const Tensor& t) const {
  LKP_CHECK(t.id >= 0 && t.id < size());
  return NodeValue(t.id);
}

const Matrix& Graph::NodeValue(int id) const {
  const Node& n = nodes_[static_cast<size_t>(id)];
  return n.external != nullptr ? *n.external : n.value;
}

Tensor Graph::MakeNode(Matrix value, std::vector<int> parents,
                       std::function<void(Graph*, int)> backward) {
  Node n;
  n.value = std::move(value);
  n.parents = std::move(parents);
  n.backward = std::move(backward);
  nodes_.push_back(std::move(n));
  return Tensor{size() - 1, this};
}

Matrix& Graph::GradRef(int id) {
  Node& n = node(id);
  if (!n.has_grad) {
    const Matrix& v = NodeValue(id);
    n.grad = Matrix(v.rows(), v.cols());
    n.has_grad = true;
  }
  return n.grad;
}

void Graph::AccumulateGrad(int id, const Matrix& g) {
  Node& n = node(id);
  if (n.param != nullptr && workspace_ != nullptr) {
    workspace_->AccumulateDense(n.param, g);
    return;
  }
  Matrix& grad = GradRef(id);
  LKP_CHECK(grad.rows() == g.rows() && grad.cols() == g.cols())
      << "gradient shape mismatch at node " << id;
  grad += g;
}

void Graph::AccumulateGrad(int id, Matrix&& g) {
  Node& n = node(id);
  if (n.param != nullptr && workspace_ != nullptr) {
    workspace_->AccumulateDense(n.param, std::move(g));
    return;
  }
  Matrix& grad = GradRef(id);
  LKP_CHECK(grad.rows() == g.rows() && grad.cols() == g.cols())
      << "gradient shape mismatch at node " << id;
  grad += g;
}

void Graph::ScatterRowGrads(int id, const std::vector<int>& rows,
                            Matrix up) {
  Node& n = node(id);
  if (n.param != nullptr && workspace_ != nullptr) {
    workspace_->AccumulateRows(n.param, rows, std::move(up));
    return;
  }
  Matrix& down = GradRef(id);
  for (size_t r = 0; r < rows.size(); ++r) {
    for (int c = 0; c < up.cols(); ++c) {
      down(rows[r], c) += up(static_cast<int>(r), c);
    }
  }
}

Tensor Graph::Constant(Matrix value) {
  return MakeNode(std::move(value), {}, nullptr);
}

Tensor Graph::Parameter(Param* param) {
  LKP_CHECK(param != nullptr);
  Tensor t = MakeNode(Matrix(), {}, nullptr);
  node(t.id).param = param;
  node(t.id).external = &param->value;
  return t;
}

Tensor Graph::GatherRows(Tensor input, std::vector<int> rows) {
  const Matrix& in = value(input);
  Matrix out(static_cast<int>(rows.size()), in.cols());
  for (size_t r = 0; r < rows.size(); ++r) {
    LKP_CHECK(rows[r] >= 0 && rows[r] < in.rows());
    for (int c = 0; c < in.cols(); ++c) {
      out(static_cast<int>(r), c) = in(rows[r], c);
    }
  }
  auto rows_copy = rows;
  const int parent = input.id;
  return MakeNode(std::move(out), {parent},
                  [parent, rows_copy](Graph* g, int self) {
                    // A node's grad is dead once its own backward runs,
                    // so hand the buffer over instead of copying it.
                    g->ScatterRowGrads(parent, rows_copy,
                                       std::move(g->node(self).grad));
                  });
}

Tensor Graph::Add(Tensor a, Tensor b) {
  const int pa = a.id, pb = b.id;
  return MakeNode(value(a) + value(b), {pa, pb},
                  [pa, pb](Graph* g, int self) {
                    const Matrix& up = g->node(self).grad;
                    g->AccumulateGrad(pa, up);
                    g->AccumulateGrad(pb, up);
                  });
}

Tensor Graph::Sub(Tensor a, Tensor b) {
  const int pa = a.id, pb = b.id;
  return MakeNode(value(a) - value(b), {pa, pb},
                  [pa, pb](Graph* g, int self) {
                    const Matrix& up = g->node(self).grad;
                    g->AccumulateGrad(pa, up);
                    Matrix neg = up;
                    neg *= -1.0;
                    g->AccumulateGrad(pb, std::move(neg));
                  });
}

Tensor Graph::Mul(Tensor a, Tensor b) {
  const int pa = a.id, pb = b.id;
  return MakeNode(Hadamard(value(a), value(b)), {pa, pb},
                  [pa, pb](Graph* g, int self) {
                    const Matrix& up = g->node(self).grad;
                    g->AccumulateGrad(pa, Hadamard(up, g->NodeValue(pb)));
                    g->AccumulateGrad(pb, Hadamard(up, g->NodeValue(pa)));
                  });
}

Tensor Graph::Scale(Tensor a, double s) {
  const int pa = a.id;
  return MakeNode(value(a) * s, {pa}, [pa, s](Graph* g, int self) {
    g->AccumulateGrad(pa, g->node(self).grad * s);
  });
}

Tensor Graph::MatMul(Tensor a, Tensor b) {
  const int pa = a.id, pb = b.id;
  return MakeNode(
      lkpdpp::MatMul(value(a), value(b)), {pa, pb},
      [pa, pb](Graph* g, int self) {
        const Matrix& up = g->node(self).grad;
        // dA = up * B^T ; dB = A^T * up.
        g->AccumulateGrad(pa, lkpdpp::MatMulTransB(up, g->NodeValue(pb)));
        g->AccumulateGrad(pb, lkpdpp::MatMulTransA(g->NodeValue(pa), up));
      });
}

Tensor Graph::MatMulTransB(Tensor a, Tensor b) {
  const int pa = a.id, pb = b.id;
  return MakeNode(
      lkpdpp::MatMulTransB(value(a), value(b)), {pa, pb},
      [pa, pb](Graph* g, int self) {
        const Matrix& up = g->node(self).grad;
        // out = A B^T: dA = up * B ; dB = up^T * A.
        g->AccumulateGrad(pa, lkpdpp::MatMul(up, g->NodeValue(pb)));
        g->AccumulateGrad(pb, lkpdpp::MatMulTransA(up, g->NodeValue(pa)));
      });
}

Tensor Graph::AddRowBroadcast(Tensor a, Tensor row) {
  const Matrix& av = value(a);
  const Matrix& rv = value(row);
  LKP_CHECK_EQ(rv.rows(), 1);
  LKP_CHECK_EQ(rv.cols(), av.cols());
  Matrix out = av;
  for (int r = 0; r < out.rows(); ++r) {
    for (int c = 0; c < out.cols(); ++c) out(r, c) += rv(0, c);
  }
  const int pa = a.id, pr = row.id;
  return MakeNode(std::move(out), {pa, pr}, [pa, pr](Graph* g, int self) {
    const Matrix& up = g->node(self).grad;
    g->AccumulateGrad(pa, up);
    Matrix rsum(1, up.cols());
    for (int r = 0; r < up.rows(); ++r) {
      for (int c = 0; c < up.cols(); ++c) rsum(0, c) += up(r, c);
    }
    g->AccumulateGrad(pr, std::move(rsum));
  });
}

Tensor Graph::RepeatRow(Tensor row, int count) {
  const Matrix& rv = value(row);
  LKP_CHECK_EQ(rv.rows(), 1);
  LKP_CHECK_GT(count, 0);
  Matrix out(count, rv.cols());
  for (int r = 0; r < count; ++r) {
    for (int c = 0; c < rv.cols(); ++c) out(r, c) = rv(0, c);
  }
  const int pr = row.id;
  return MakeNode(std::move(out), {pr}, [pr](Graph* g, int self) {
    const Matrix& up = g->node(self).grad;
    Matrix rsum(1, up.cols());
    for (int r = 0; r < up.rows(); ++r) {
      for (int c = 0; c < up.cols(); ++c) rsum(0, c) += up(r, c);
    }
    g->AccumulateGrad(pr, std::move(rsum));
  });
}

Tensor Graph::ConcatCols(Tensor a, Tensor b) {
  const Matrix& av = value(a);
  const Matrix& bv = value(b);
  LKP_CHECK_EQ(av.rows(), bv.rows());
  Matrix out(av.rows(), av.cols() + bv.cols());
  for (int r = 0; r < av.rows(); ++r) {
    for (int c = 0; c < av.cols(); ++c) out(r, c) = av(r, c);
    for (int c = 0; c < bv.cols(); ++c) out(r, av.cols() + c) = bv(r, c);
  }
  const int pa = a.id, pb = b.id;
  const int acols = av.cols();
  return MakeNode(std::move(out), {pa, pb},
                  [pa, pb, acols](Graph* g, int self) {
                    const Matrix& up = g->node(self).grad;
                    Matrix da(up.rows(), acols);
                    Matrix db(up.rows(), up.cols() - acols);
                    for (int r = 0; r < up.rows(); ++r) {
                      for (int c = 0; c < acols; ++c) da(r, c) = up(r, c);
                      for (int c = acols; c < up.cols(); ++c) {
                        db(r, c - acols) = up(r, c);
                      }
                    }
                    g->AccumulateGrad(pa, std::move(da));
                    g->AccumulateGrad(pb, std::move(db));
                  });
}

Tensor Graph::SliceRows(Tensor a, int start, int count) {
  const Matrix& av = value(a);
  LKP_CHECK(start >= 0 && count >= 0 && start + count <= av.rows());
  Matrix out(count, av.cols());
  for (int r = 0; r < count; ++r) {
    for (int c = 0; c < av.cols(); ++c) out(r, c) = av(start + r, c);
  }
  const int pa = a.id;
  return MakeNode(std::move(out), {pa}, [pa, start](Graph* g, int self) {
    const int up_rows = g->node(self).grad.rows();
    std::vector<int> rows(static_cast<size_t>(up_rows));
    for (int r = 0; r < up_rows; ++r) rows[static_cast<size_t>(r)] = start + r;
    g->ScatterRowGrads(pa, rows, std::move(g->node(self).grad));
  });
}

Tensor Graph::RowSum(Tensor a) {
  const Matrix& av = value(a);
  Matrix out(av.rows(), 1);
  for (int r = 0; r < av.rows(); ++r) {
    double s = 0.0;
    for (int c = 0; c < av.cols(); ++c) s += av(r, c);
    out(r, 0) = s;
  }
  const int pa = a.id;
  return MakeNode(std::move(out), {pa}, [pa](Graph* g, int self) {
    const Matrix& up = g->node(self).grad;
    const Matrix& pv = g->NodeValue(pa);
    Matrix down(pv.rows(), pv.cols());
    for (int r = 0; r < down.rows(); ++r) {
      for (int c = 0; c < down.cols(); ++c) down(r, c) = up(r, 0);
    }
    g->AccumulateGrad(pa, std::move(down));
  });
}

Tensor Graph::Relu(Tensor a) {
  Matrix out = value(a);
  for (int r = 0; r < out.rows(); ++r) {
    for (int c = 0; c < out.cols(); ++c) {
      if (out(r, c) < 0.0) out(r, c) = 0.0;
    }
  }
  const int pa = a.id;
  return MakeNode(std::move(out), {pa}, [pa](Graph* g, int self) {
    const Matrix& up = g->node(self).grad;
    const Matrix& val = g->node(self).value;
    Matrix down = up;
    for (int r = 0; r < down.rows(); ++r) {
      for (int c = 0; c < down.cols(); ++c) {
        if (val(r, c) <= 0.0) down(r, c) = 0.0;
      }
    }
    g->AccumulateGrad(pa, std::move(down));
  });
}

Tensor Graph::Sigmoid(Tensor a) {
  Matrix out = value(a);
  for (int r = 0; r < out.rows(); ++r) {
    for (int c = 0; c < out.cols(); ++c) {
      const double x = out(r, c);
      out(r, c) = x >= 0.0 ? 1.0 / (1.0 + std::exp(-x))
                           : std::exp(x) / (1.0 + std::exp(x));
    }
  }
  const int pa = a.id;
  return MakeNode(std::move(out), {pa}, [pa](Graph* g, int self) {
    const Matrix& up = g->node(self).grad;
    const Matrix& val = g->node(self).value;
    Matrix down = up;
    for (int r = 0; r < down.rows(); ++r) {
      for (int c = 0; c < down.cols(); ++c) {
        down(r, c) *= val(r, c) * (1.0 - val(r, c));
      }
    }
    g->AccumulateGrad(pa, std::move(down));
  });
}

Tensor Graph::Tanh(Tensor a) {
  Matrix out = value(a);
  for (int r = 0; r < out.rows(); ++r) {
    for (int c = 0; c < out.cols(); ++c) out(r, c) = std::tanh(out(r, c));
  }
  const int pa = a.id;
  return MakeNode(std::move(out), {pa}, [pa](Graph* g, int self) {
    const Matrix& up = g->node(self).grad;
    const Matrix& val = g->node(self).value;
    Matrix down = up;
    for (int r = 0; r < down.rows(); ++r) {
      for (int c = 0; c < down.cols(); ++c) {
        down(r, c) *= 1.0 - val(r, c) * val(r, c);
      }
    }
    g->AccumulateGrad(pa, std::move(down));
  });
}

Tensor Graph::Spmm(const SparseMatrix* sparse, Tensor dense,
                   ThreadPool* pool) {
  LKP_CHECK(sparse != nullptr);
  const int pd = dense.id;
  return MakeNode(sparse->Multiply(value(dense), pool), {pd},
                  [pd, sparse, pool](Graph* g, int self) {
                    g->AccumulateGrad(pd, sparse->MultiplyTransposed(
                                              g->node(self).grad, pool));
                  });
}

Tensor Graph::MeanOf(const std::vector<Tensor>& tensors) {
  LKP_CHECK(!tensors.empty());
  Matrix out = value(tensors[0]);
  for (size_t i = 1; i < tensors.size(); ++i) out += value(tensors[i]);
  const double inv = 1.0 / static_cast<double>(tensors.size());
  out *= inv;
  std::vector<int> parents;
  parents.reserve(tensors.size());
  for (const Tensor& t : tensors) parents.push_back(t.id);
  auto parent_ids = parents;
  return MakeNode(std::move(out), std::move(parents),
                  [parent_ids, inv](Graph* g, int self) {
                    const Matrix up = g->node(self).grad * inv;
                    for (int p : parent_ids) g->AccumulateGrad(p, up);
                  });
}

Status Graph::Backward(const std::vector<std::pair<Tensor, Matrix>>& seeds) {
  if (backward_done_) {
    return Status::FailedPrecondition("Backward already run on this graph");
  }
  backward_done_ = true;
  for (const auto& [tensor, seed] : seeds) {
    if (tensor.graph != this || tensor.id < 0 || tensor.id >= size()) {
      return Status::InvalidArgument("seed tensor not from this graph");
    }
    const Matrix& v = NodeValue(tensor.id);
    if (seed.rows() != v.rows() || seed.cols() != v.cols()) {
      return Status::InvalidArgument(
          StrFormat("seed shape %dx%d does not match tensor %dx%d",
                    seed.rows(), seed.cols(), v.rows(), v.cols()));
    }
    AccumulateGrad(tensor.id, seed);
  }
  // Nodes were created in topological order; sweep in reverse. With a
  // workspace attached, parameter contributions were intercepted at the
  // accumulation sites, so leaves carry no grad of their own.
  for (int id = size() - 1; id >= 0; --id) {
    Node& n = node(id);
    if (!n.has_grad) continue;
    if (n.param != nullptr && workspace_ == nullptr) {
      n.param->grad += n.grad;
    }
    if (n.backward) n.backward(this, id);
  }
  return Status::OK();
}

}  // namespace lkpdpp::ad
