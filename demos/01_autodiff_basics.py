"""Reverse-mode autodiff on dense numpy tensors, from scratch.

Builds a small expression graph, backpropagates, and cross-checks the
result against a central finite-difference estimate.
"""

import numpy as np

import tncse.autodiff as ad
from tncse.autodiff import Tensor
from tncse.gradsuite import check_gradients, finite_difference_grad

# A scalar function of a matrix: f(X) = sum(tanh(X @ W) * M)
rng = np.random.default_rng(0)
W = Tensor(rng.standard_normal((4, 3)))
M = Tensor(rng.standard_normal((2, 3)))
X = Tensor(rng.standard_normal((2, 4)), requires_grad=True)

out = ad.sum_(ad.mul(ad.tanh(ad.matmul(X, W)), M))
out.backward()
print("f(X)      =", float(out.item()))
print("grad norm =", np.linalg.norm(X.grad))

# The same gradient via finite differences
fd = finite_difference_grad(
    lambda x: ad.sum_(ad.mul(ad.tanh(ad.matmul(Tensor(x), W)), M)).item(),
    X.data.astype(np.float64))
print("max |analytic - numeric| =", np.abs(X.grad - fd).max())

# check_gradients wraps that comparison with a tolerance
check_gradients(
    lambda x: ad.sum_(ad.mul(ad.tanh(ad.matmul(x, W)), M)),
    [X.data.astype(np.float64)], rtol=1e-6)
print("gradient check passed at rtol 1e-6")

# Broadcasting, softmax, and layer_norm are first-class primitives too
H = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
g = Tensor(np.ones(5))
b = Tensor(np.zeros(5))
normed = ad.layer_norm(H, g, b)
probs = ad.softmax(normed)
loss = ad.mean(ad.mul(probs, probs))
loss.backward()
print("layer_norm+softmax composite grad norm =", np.linalg.norm(H.grad))
