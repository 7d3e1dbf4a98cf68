"""Structure guard: every layer above the NIC sends with ``Nic.post``,
and every message takes one flight.

No module of ``repro`` outside ``repro/network/`` may import ``Packet``
(an import for annotations only, under ``if TYPE_CHECKING:``, is no
dependency), call ``.send(`` on a NIC or register a NIC handler.  A
receiver counts as a NIC when its source text names one (``nic``,
``self.nic``, ``world.nics[rank]``, ``self.engine.nic`` …).

The flight is ``Nic.launch`` → ``Nic.land``: the fabric has no
``transmit`` / ``_deliver`` of its own, the fault injector draws a fate
only in ``Nic.launch``, and no module of ``repro`` but the NIC's builds
a ``Packet`` (tests and the benchmark send raw ones).
"""

import ast
import os

import repro

SRC = os.path.dirname(repro.__file__)
NETWORK = os.path.join(SRC, "network")


def _modules():
    for root, _dirs, files in os.walk(SRC):
        if root == NETWORK or root.startswith(NETWORK + os.sep):
            continue
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(root, name)


def _type_checking_lines(tree):
    """Line numbers inside ``if TYPE_CHECKING:`` blocks."""
    lines = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.If)
                and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            for child in node.body:
                for sub in ast.walk(child):
                    if hasattr(sub, "lineno"):
                        lines.add(sub.lineno)
    return lines


def violations(path):
    """``(line, what)`` for every forbidden construct in ``path``."""
    with open(path) as fh:
        text = fh.read()
    tree = ast.parse(text, path)
    annotation_only = _type_checking_lines(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            names = {alias.name for alias in node.names}
            if (node.module.startswith("repro.network")
                    and "Packet" in names
                    and node.lineno not in annotation_only):
                found.append((node.lineno, f"imports {sorted(names)} "
                                           f"from {node.module}"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro.network.packet":
                    found.append((node.lineno, "imports repro.network.packet"))
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("send", "register_handler")):
            receiver = ast.get_source_segment(text, node.func.value) or ""
            if "nic" in receiver.lower():
                found.append((node.lineno,
                              f"calls {receiver}.{node.func.attr}("))
    return found


def test_only_the_network_builds_and_sends_packets():
    found = {}
    for path in _modules():
        bad = violations(path)
        if bad:
            found[os.path.relpath(path, SRC)] = bad
    assert found == {}


def test_the_guard_sees_what_it_forbids(tmp_path):
    """The scan itself: each forbidden form is reported, the allowed
    ones (a generator's ``send``, a communicator's ``send``, an
    annotation-only import) are not."""
    module = tmp_path / "m.py"
    module.write_text(
        "from typing import TYPE_CHECKING\n"
        "from repro.network.packet import Packet\n"
        "from repro.network import HEADER_SIZE, Packet\n"
        "from repro.network.packet import ACK_SIZE\n"
        "if TYPE_CHECKING:\n"
        "    from repro.network.packet import Packet\n"
        "def f(self, world, gen, comm):\n"
        "    self.nic.send(Packet(0, 1, 'k'))\n"
        "    world.nics[0].send(None)\n"
        "    self.engine.nic.register_handler('k', print)\n"
        "    gen.send(None)\n"
        "    comm.send(1, dest=0)\n"
    )
    found = sorted(line for line, _ in violations(str(module)))
    assert found == [2, 3, 8, 9, 10]


def _calls(tree):
    """``(enclosing "Class.function", call node)`` for every call."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
            else:
                if isinstance(child, ast.Call):
                    found.append((".".join(scope), child))
                visit(child, scope)

    visit(tree, ())
    return found


def _parsed():
    for root, _dirs, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path) as fh:
                    yield os.path.relpath(path, SRC), ast.parse(fh.read())


def test_the_fabric_has_no_flight_of_its_own():
    with open(os.path.join(NETWORK, "fabric.py")) as fh:
        tree = ast.parse(fh.read())
    fabric, = [node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "Fabric"]
    methods = {node.name for node in fabric.body
               if isinstance(node, ast.FunctionDef)}
    assert methods & {"transmit", "_deliver"} == set()


def test_fates_are_drawn_only_at_launch():
    drawn = [(path, scope) for path, tree in _parsed()
             for scope, call in _calls(tree)
             if isinstance(call.func, ast.Attribute)
             and call.func.attr == "fate"]
    assert drawn == [(os.path.join("network", "nic.py"), "Nic.launch")]


def test_only_the_nic_builds_packets():
    built = [(path, scope) for path, tree in _parsed()
             for scope, call in _calls(tree)
             if (isinstance(call.func, ast.Name) and call.func.id == "Packet")
             or (isinstance(call.func, ast.Attribute)
                 and call.func.attr == "Packet")]
    assert [(path, scope) for path, scope in built
            if path != os.path.join("network", "nic.py")] == []
