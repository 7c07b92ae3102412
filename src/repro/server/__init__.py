"""Session tier: the NodeJS layer of Figure 4, in process.

"The top layer of the server manages the sessions and relays the maps to
the clients."  This package reproduces that layer's observable behaviour:
a JSON request/response protocol (:mod:`repro.server.protocol`) and a
multi-session dispatcher (:mod:`repro.server.session`) that turns client
messages into engine calls and engine results into JSON payloads.  No
sockets are opened — the protocol is exercised in process, which is how
``tests/integration/test_end_to_end.py::TestProtocolRoundTrip`` drives
the Figure 4 stack end to end.

The entry points live in the submodules (:mod:`repro.server.protocol`,
:mod:`repro.server.session`);
:mod:`repro.service` re-exports them next to the HTTP tier.
"""
