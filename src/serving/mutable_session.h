#ifndef AUTOAC_SERVING_MUTABLE_SESSION_H_
#define AUTOAC_SERVING_MUTABLE_SESSION_H_

#include "serving/inference_session.h"

namespace autoac {

/// The mutation overlay is part of InferenceSession (DESIGN.md §12). This
/// name stays for the end-to-end benchmark's serving probes
/// (e2e_bench/serving_probes.cc), which include this header and build
/// `MutableSession overlay(session, MutableSession::Options{})`.
using MutableSession = InferenceSession;

}  // namespace autoac

#endif  // AUTOAC_SERVING_MUTABLE_SESSION_H_
