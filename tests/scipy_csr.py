"""SciPy's CSR of a :class:`~repro.assembly.global_matrix.BlockMatrix`.

``src/repro`` never imports ``scipy.sparse``; a test that holds a kernel
to SciPy's ``@`` wraps the matrix's own CSR arrays here.
"""

from scipy.sparse import csr_matrix


def scipy_csr(a) -> csr_matrix:
    """``a``'s full symmetric matrix as ``scipy.sparse.csr_matrix``."""
    indptr, indices, data = a.to_csr_arrays()
    return csr_matrix((data, indices, indptr), shape=(indptr.size - 1,) * 2)
