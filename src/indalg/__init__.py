"""Verification workbench for word-algebra counterexamples, clone catalogs,
and order-theoretic structure of endomorphism monoids.

Records are ``typing.NamedTuple``s or plain classes, not the standard
library's data classes: importing that module (and ``inspect`` with it)
and running the code its decorator generates took about half of the
CLI's cold start.  Importing ``indalg.cli`` loads no backend either: each
subcommand imports its own area (words, terms and counterexample; the
catalog; or ``orders``) when it runs, so a process pays only for the areas
its reports use.  Nor does it load ``json``: reports are written with
``_json``'s string escaper alone, and ``json`` is imported only to read a
payload or ``--params``.  The command line is read against one declared
flag table, so neither the standard library's argument parser nor the
``gettext`` and ``locale`` it loads are imported."""

__version__ = "0.1.0"
