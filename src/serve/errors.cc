#include "serve/errors.hh"

#include <new>

#include "util/logging.hh"

namespace madmax
{

const ServeErrorSpec &
serveErrorSpec(ServeError kind)
{
    // The one status/code table. Codes are wire contract: clients
    // dispatch on them, the taxonomy test pins the rendered bodies
    // byte-for-byte, and docs/serving.md documents each one.
    static const ServeErrorSpec kSpecs[] = {
        /* BadRequest        */ {400, "bad_request"},
        /* NotFound          */ {404, "not_found"},
        /* MethodNotAllowed  */ {405, "method_not_allowed"},
        /* PayloadTooLarge   */ {413, "payload_too_large"},
        /* HeaderTooLarge    */ {431, "bad_request"},
        /* Internal          */ {500, "internal"},
        /* EvalFailed        */ {500, "eval_failed"},
        /* NotImplemented    */ {501, "not_implemented"},
        /* Overloaded        */ {503, "overloaded"},
        /* ResourceExhausted */ {503, "resource_exhausted"},
        /* FdExhausted       */ {503, "fd_exhausted"},
        /* CircuitOpen       */ {503, "circuit_open"},
    };
    return kSpecs[static_cast<size_t>(kind)];
}

HttpResponse
makeError(ServeError kind, const std::string &message)
{
    const ServeErrorSpec &spec = serveErrorSpec(kind);
    return errorResponse(spec.status, spec.code, message);
}

HttpResponse
errorFromCurrentException()
{
    try {
        throw;
    } catch (const CircuitOpenError &e) {
        HttpResponse resp = makeError(ServeError::CircuitOpen, e.what());
        resp.headers["Retry-After"] =
            std::to_string(e.retryAfterSeconds);
        return resp;
    } catch (const ConfigError &e) {
        return makeError(ServeError::BadRequest, e.what());
    } catch (const std::bad_alloc &) {
        return makeError(ServeError::ResourceExhausted,
                         "allocation failed while serving the request");
    } catch (const std::exception &e) {
        return makeError(ServeError::Internal, e.what());
    } catch (...) {
        return makeError(ServeError::Internal, "unknown error");
    }
}

CircuitOpenError::CircuitOpenError(long retryAfterSeconds_)
    : std::runtime_error(
          "circuit breaker is open for this configuration; retry in " +
          std::to_string(retryAfterSeconds_) + " s"),
      retryAfterSeconds(retryAfterSeconds_)
{
}

} // namespace madmax
