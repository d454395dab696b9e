from bayesblind.errors import BayesBlindError, HorizonInsufficient, InputError


def test_one_error_class_per_exit_code():
    classes = {cls: cls.exit_code for cls in BayesBlindError.__subclasses__()}
    assert classes == {InputError: 2, HorizonInsufficient: 3}
