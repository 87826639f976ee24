#include "attention/exact.h"

#include "tensor/ops.h"

namespace elsa {

void
AttentionInput::validate() const
{
    ELSA_CHECK(query.rows() == key.rows() && key.rows() == value.rows(),
               "Q/K/V row counts differ: " << query.rows() << "/"
                                           << key.rows() << "/"
                                           << value.rows());
    ELSA_CHECK(query.cols() == key.cols() && key.cols() == value.cols(),
               "Q/K/V column counts differ: " << query.cols() << "/"
                                              << key.cols() << "/"
                                              << value.cols());
    ELSA_CHECK(query.rows() > 0 && query.cols() > 0,
               "query/key/value matrices are empty");
}

void
attentionRow(const float* q, const Matrix& key, KeyList keys,
             std::vector<double>& weights, const Matrix* value,
             float* out)
{
    const std::size_t d = key.cols();
    weights.resize(keys.count);
    for (std::size_t c = 0; c < keys.count; ++c) {
        weights[c] = dot(q, key.row(keys[c]), d);
    }
    softmaxInPlace(weights);
    if (value == nullptr) {
        return;
    }
    for (std::size_t c = 0; c < keys.count; ++c) {
        const double w = weights[c];
        const float* v = value->row(keys[c]);
        for (std::size_t col = 0; col < d; ++col) {
            out[col] += static_cast<float>(w * v[col]);
        }
    }
}

Matrix
exactAttention(const AttentionInput& input,
               const ExactAttentionOptions& options,
               const AttentionRowVisitor& visit)
{
    input.validate();
    const std::size_t n = input.n();
    Matrix output(n, input.d());
    std::vector<double> weights;
    for (std::size_t i = 0; i < n; ++i) {
        // Causal mode restricts query i to keys 0..i.
        attentionRow(input.query.row(i), input.key,
                     KeyList{options.causal ? i + 1 : n}, weights,
                     &input.value, output.row(i));
        if (visit) {
            visit(i, weights);
        }
    }
    return output;
}

std::size_t
exactAttentionMacs(std::size_t n, std::size_t d)
{
    return 2 * n * n * d;
}

} // namespace elsa
