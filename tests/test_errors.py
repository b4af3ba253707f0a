"""The exception hierarchy: subclass relations and structured fields."""

import pytest

from repro.cudalite import parse_program
from repro.errors import (
    AnalysisError,
    CudaLiteError,
    GraphError,
    InterpreterError,
    LexError,
    OutOfBoundsError,
    ParseError,
    PipelineError,
    ReproError,
    SemanticError,
    SearchError,
    TransformError,
    VerificationError,
)
from repro.gpu.interpreter import run_program

ALL_ERRORS = (
    CudaLiteError,
    LexError,
    ParseError,
    SemanticError,
    InterpreterError,
    OutOfBoundsError,
    AnalysisError,
    GraphError,
    SearchError,
    TransformError,
    VerificationError,
    PipelineError,
)


@pytest.mark.parametrize("exc_type", ALL_ERRORS)
def test_every_error_derives_from_repro_error(exc_type):
    assert issubclass(exc_type, ReproError)
    assert issubclass(exc_type, Exception)


def test_language_errors_derive_from_cudalite_error():
    for exc_type in (LexError, ParseError, SemanticError):
        assert issubclass(exc_type, CudaLiteError)
    # runtime/analysis errors are siblings, not language errors
    for exc_type in (InterpreterError, AnalysisError, SearchError):
        assert not issubclass(exc_type, CudaLiteError)


def test_oob_derives_from_interpreter_error():
    assert issubclass(OutOfBoundsError, InterpreterError)


def test_catching_the_base_class_catches_everything():
    for exc_type in ALL_ERRORS:
        try:
            if exc_type in (LexError, ParseError):
                raise exc_type("boom", 1, 2)
            raise exc_type("boom")
        except ReproError:
            pass


@pytest.mark.parametrize("exc_type", (LexError, ParseError))
def test_located_language_errors_carry_line_and_col(exc_type):
    err = exc_type("unexpected token", line=3, col=7)
    assert err.line == 3
    assert err.col == 7
    assert str(err) == "3:7: unexpected token"
    # without a location the message is unchanged
    assert str(exc_type("bare message")) == "bare message"


def test_interpreter_error_carries_kernel():
    err = InterpreterError("division by zero", kernel="diffuse")
    assert err.kernel == "diffuse"
    assert InterpreterError("host-side failure").kernel is None


def test_out_of_bounds_structured_fields():
    err = OutOfBoundsError(
        "array 'A' axis 0: index 9 out of [0, 8)",
        kernel="k",
        array="A",
        axis=0,
        index=9,
        block=(1, 0, 0),
        thread=(3, 0, 0),
    )
    assert err.kernel == "k"
    assert err.array == "A"
    assert err.axis == 0
    assert err.index == 9
    assert err.block == (1, 0, 0)
    assert err.thread == (3, 0, 0)
    # all location fields are optional
    bare = OutOfBoundsError("somewhere")
    assert bare.array is None and bare.block is None and bare.thread is None


def test_stage_attribute_defaults_to_none_and_is_settable():
    err = TransformError("fusion failed")
    assert err.stage is None
    err.stage = "codegen"
    assert err.stage == "codegen"


def test_interpreter_oob_reports_kernel_array_and_axis():
    source = """
__global__ void walk(double *A, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { A[i] = A[i + 1]; }
}
int main() {
    int n = 8;
    double *A = cudaMalloc1D(n);
    walk<<<dim3(1, 1, 1), dim3(8, 1, 1)>>>(A, n);
    return 0;
}
"""
    with pytest.raises(OutOfBoundsError) as excinfo:
        run_program(parse_program(source))
    err = excinfo.value
    assert err.kernel == "walk"
    assert err.array == "A"
    assert err.axis == 0
    assert err.index is not None and err.index >= 8
    # the message is self-contained: kernel, array and axis all appear
    message = str(err)
    assert "walk" in message
    assert "'A'" in message
    assert "axis 0" in message
